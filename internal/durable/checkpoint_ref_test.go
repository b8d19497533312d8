package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/transport"
)

// The buffered checkpoint codec: a second, whole-payload implementation of
// the version-1 "LDPC" format documented in checkpoint.go, written out by
// hand. No production path calls it — the store reads and writes through the
// streaming codec — it lives here as the reference the streaming one is
// compared against (TestStreamedCheckpointMatchesBufferedEncoder,
// TestCheckpointGoldenCompatibility, TestCheckpointStreamGoldenCompatibility).

// encodeCheckpoint serializes the envelope around an already-framed snapshot.
func encodeCheckpoint(seq uint64, snap transport.Snapshot, keys []transport.KeyCount) ([]byte, error) {
	if len(keys) > transport.IdempotencyHorizon {
		keys = keys[len(keys)-transport.IdempotencyHorizon:] // newest win, as in the key table
	}
	var pb bytes.Buffer
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seq)
	pb.Write(s[:])
	if err := transport.EncodeSnapshotFrame(&pb, snap); err != nil {
		return nil, fmt.Errorf("durable: encode checkpoint snapshot: %w", err)
	}
	var kc [4]byte
	binary.BigEndian.PutUint32(kc[:], uint32(len(keys)))
	pb.Write(kc[:])
	for _, k := range keys {
		if len(k.Key) > maxRecordMeta {
			return nil, fmt.Errorf("durable: checkpoint key exceeds %d bytes", maxRecordMeta)
		}
		pb.WriteByte(byte(len(k.Key)))
		pb.WriteString(k.Key)
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(k.Reports))
		pb.Write(n[:])
	}
	payload := pb.Bytes()
	out := make([]byte, 0, envelopeHeaderLen+len(payload))
	out = append(out, checkpointMagic...)
	out = append(out, checkpointV1)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...), nil
}

// DecodeCheckpoint parses one checkpoint envelope and returns the segment
// sequence it precedes, the snapshot it pins, and its idempotency-key table.
// Any defect — short file, bad magic, CRC mismatch, trailing bytes, an
// unreadable snapshot frame or key table — returns an error.
func DecodeCheckpoint(data []byte) (uint64, transport.Snapshot, []transport.KeyCount, error) {
	fail := func(format string, args ...any) (uint64, transport.Snapshot, []transport.KeyCount, error) {
		return 0, transport.Snapshot{}, nil, fmt.Errorf("%w: %s", errInvalidCheckpoint, fmt.Sprintf(format, args...))
	}
	if len(data) < envelopeHeaderLen {
		return fail("%d bytes is shorter than the header", len(data))
	}
	if string(data[:4]) != checkpointMagic {
		return fail("bad magic %q", data[:4])
	}
	if data[4] != checkpointV1 {
		return fail("unsupported version %d", data[4])
	}
	wantCRC := binary.BigEndian.Uint32(data[5:])
	plen := binary.BigEndian.Uint32(data[9:])
	payload := data[envelopeHeaderLen:]
	if uint64(plen) != uint64(len(payload)) {
		return fail("declares %d payload bytes, carries %d", plen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return fail("CRC mismatch")
	}
	if len(payload) < 8 {
		return fail("truncated at its sequence")
	}
	seq := binary.BigEndian.Uint64(payload)
	fr := bytes.NewReader(payload[8:])
	snap, err := transport.DecodeSnapshotFrame(fr)
	if err != nil {
		return fail("%v", err)
	}
	var kc [4]byte
	if _, err := io.ReadFull(fr, kc[:]); err != nil {
		return fail("truncated at its key-table count")
	}
	nkeys := binary.BigEndian.Uint32(kc[:])
	if nkeys > transport.IdempotencyHorizon {
		return fail("declares %d keys, limit %d", nkeys, transport.IdempotencyHorizon)
	}
	keys := make([]transport.KeyCount, 0, nkeys)
	for i := uint32(0); i < nkeys; i++ {
		l, err := fr.ReadByte()
		if err != nil {
			return fail("truncated at key %d", i)
		}
		kb := make([]byte, int(l)+8)
		if _, err := io.ReadFull(fr, kb); err != nil {
			return fail("truncated at key %d", i)
		}
		keys = append(keys, transport.KeyCount{
			Key:     string(kb[:l]),
			Reports: int64(binary.BigEndian.Uint64(kb[l:])),
		})
	}
	if fr.Len() != 0 {
		return fail("%d trailing bytes after the key table", fr.Len())
	}
	return seq, snap, keys, nil
}
