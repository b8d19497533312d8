package durable

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/transport"
)

// Streaming checkpoint I/O — the one checkpoint codec. A checkpoint file pins
// the merged accumulator at a WAL rotation point, so recovery replays only the
// segments written after it: a version-2 transport snapshot frame (count,
// epoch and full mechanism identity included) in the "LDPC" envelope,
// which also names the WAL segment the checkpoint precedes and carries the
// idempotency-key table of everything it covers. Neither direction
// materializes the payload: the state streams through a fixed chunk, the CRC
// accumulates incrementally, the writer patches the header in place before
// the atomic rename, and the reader hands key-table entries to a visitor.
// Version 1 is the raw payload (byte-identical to the buffered reference
// encoder the tests keep); version 2 is its gzip stream — worthwhile for the
// unary mechanisms, whose accumulators are long runs of small integers. The
// envelope's CRC and length cover the on-disk payload bytes; the payload
// (after decompression for version 2) is:
//
//	seq      uint64 big-endian  segment sequence this checkpoint precedes
//	snapshot one v2 snapshot frame (transport.EncodeSnapshotFrame)
//	keyCount uint32 big-endian, then keyCount entries, oldest first:
//	  keyLen uint8, then keyLen bytes    idempotency key
//	  reports uint64 big-endian          reports absorbed under the key
//
// Invariant: state(checkpoint-<g>) equals the replay of every WAL segment
// with sequence < g, so state(checkpoint-<g>) + replay(wal-<g>, wal-<g+1>, …)
// is always the full collector state, whichever rotation the crash
// interrupted. The key table obeys the same invariant — it totals the keyed
// records of every segment < g (bounded: past the cap the first-seen keys
// are dropped, as in every transport.KeyHorizon) — so a keyed request whose
// records straddle a checkpoint still recovers its full absorbed count, not
// just the replayed tail's share.
//
// The key table holds at most transport.IdempotencyHorizon entries, oldest
// first by first arrival, the order the live table keeps: a retry older than
// the newest horizon of keyed requests re-absorbs, with or without a crash in
// between.
const (
	checkpointMagic = "LDPC"
	checkpointV1    = 1
	checkpointV2    = 2

	// maxCheckpointKey bounds one key's byte length (one length byte on the
	// wire).
	maxCheckpointKey = 255

	// maxCheckpointSize bounds a checkpoint payload after decompression:
	// envelope + the transport's snapshot frame cap + a full key table.
	maxCheckpointSize = transport.MaxSnapshotPayload + transport.IdempotencyHorizon*(2+maxCheckpointKey+8) + 1024
)

// keyEntry is the one buffer a key-table entry passes through in either
// direction: length byte, key, report count.
type keyEntry [1 + maxCheckpointKey + 8]byte

var errInvalidCheckpoint = errors.New("durable: invalid checkpoint file")

// crcWriter counts and CRCs everything written through it.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// writePayload streams the logical checkpoint payload — sequence, snapshot
// frame, key table — to w.
func writePayload(w io.Writer, seq uint64, snap transport.Snapshot, keys []transport.KeyCount) error {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	if err := transport.EncodeSnapshotFrame(w, snap); err != nil {
		return err
	}
	var kc [4]byte
	binary.BigEndian.PutUint32(kc[:], uint32(len(keys)))
	if _, err := w.Write(kc[:]); err != nil {
		return err
	}
	var entry keyEntry
	for _, k := range keys {
		entry[0] = byte(len(k.Key))
		n := 1 + copy(entry[1:], k.Key)
		binary.BigEndian.PutUint64(entry[n:], uint64(k.Reports))
		if _, err := w.Write(entry[:n+8]); err != nil {
			return err
		}
	}
	return nil
}

// writeCheckpointFile writes checkpoint seq into dir under its
// checkpointName, replacing the file atomically: placeholder header, streamed
// payload, header patched in place. compress selects the gzipped version-2
// payload; off, the output is byte-identical to the buffered version-1
// reference encoder. The file and directory are synced whatever the WAL's
// fsync mode, because a checkpoint's durability gates the pruning of the
// segments it replaces. Returns the final path.
func writeCheckpointFile(dir string, seq uint64, snap transport.Snapshot, keys []transport.KeyCount, compress bool) (string, error) {
	if len(keys) > transport.IdempotencyHorizon {
		keys = keys[len(keys)-transport.IdempotencyHorizon:] // newest win, as in the key table
	}
	for _, k := range keys {
		if len(k.Key) > maxCheckpointKey {
			return "", fmt.Errorf("durable: checkpoint key exceeds %d bytes", maxCheckpointKey)
		}
	}
	if _, err := transport.SnapshotFrameLen(snap); err != nil {
		return "", err
	}
	version := byte(checkpointV1)
	if compress {
		version = checkpointV2
	}
	final := filepath.Join(dir, checkpointName(seq))
	return final, ReplaceFile(final, func(f *os.File) error {
		// The CRC and length are known only after the stream.
		var buf [envelopeHeaderLen]byte
		hdr := beginEnvelope(buf[:0], checkpointMagic, version)
		if _, err := f.Write(hdr); err != nil {
			return err
		}
		cw := &crcWriter{w: f, crc: crc32.NewIEEE()}
		bw := bufio.NewWriterSize(cw, 1<<16)
		if compress {
			gz := gzip.NewWriter(bw)
			if err := writePayload(gz, seq, snap, keys); err != nil {
				return err
			}
			if err := gz.Close(); err != nil {
				return err
			}
		} else if err := writePayload(bw, seq, snap, keys); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if cw.n > int64(maxCheckpointSize) {
			return fmt.Errorf("durable: checkpoint payload exceeds the %d-byte limit", maxCheckpointSize)
		}
		sealEnvelope(hdr, cw.crc.Sum32(), int(cw.n))
		_, err := f.WriteAt(hdr, 0)
		return err
	})
}

// crcReader counts and CRCs everything read through it.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
	n   int64
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc.Write(p[:n])
	c.n += int64(n)
	return n, err
}

// readCheckpointFile reads and validates one checkpoint file of either
// version, streaming — the state is decoded chunk by chunk, never via a
// second whole-payload buffer. The envelope's sequence is pinned to wantSeq
// (the filename's), the CRC must cover exactly the declared payload, and any
// trailing byte — inside the payload or after it — is an error. Returns the
// pinned snapshot and whether the payload was compressed.
//
// The key table is always walked and validated, never built: each entry is
// handed to eachKey (when non-nil), oldest first. key is the reader's own
// buffer, valid only during the call — convert it, never retain it. eachKey
// runs BEFORE the CRC verdict, so a file refused at its last byte has already
// streamed every key: collect into something the caller discards on error.
func readCheckpointFile(path string, wantSeq uint64, eachKey func(key []byte, reports int64)) (transport.Snapshot, bool, error) {
	return readCheckpoint(path, wantSeq, eachKey, false)
}

// readCheckpointEpoch returns the epoch checkpoint file path pins, read from
// its fixed-size head alone: envelope header, sequence, snapshot-frame
// header, count, epoch. The state and the key table are never read, and the
// CRC is not checked — SnapshotAt reads the file whole, and validates it,
// before it serves it.
func readCheckpointEpoch(path string, wantSeq uint64) (uint64, error) {
	head, _, err := readCheckpoint(path, wantSeq, nil, true)
	return head.Epoch, err
}

// readCheckpoint is readCheckpointFile, or with headOnly readCheckpointEpoch:
// one envelope opener for both.
func readCheckpoint(path string, wantSeq uint64, eachKey func(key []byte, reports int64), headOnly bool) (transport.Snapshot, bool, error) {
	fail := func(format string, args ...any) (transport.Snapshot, bool, error) {
		return transport.Snapshot{}, false, fmt.Errorf("%w: %s", errInvalidCheckpoint, fmt.Sprintf(format, args...))
	}
	f, err := os.Open(path)
	if err != nil {
		return transport.Snapshot{}, false, err
	}
	defer f.Close()
	var hdr [envelopeHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fail("shorter than the header")
	}
	version, wantCRC, plen, err := checkHeader(hdr[:], checkpointMagic, maxCheckpointSize, checkpointV1, checkpointV2)
	if err != nil {
		return fail("%v", err)
	}
	bufSize := 1 << 16
	if headOnly {
		bufSize = 512 // the head is a few dozen bytes
	}
	cr := &crcReader{r: io.LimitReader(f, int64(plen)), crc: crc32.NewIEEE()}
	var body io.Reader = bufio.NewReaderSize(cr, bufSize)
	compressed := version == checkpointV2
	var gz *gzip.Reader
	if compressed {
		if gz, err = gzip.NewReader(body); err != nil {
			return fail("gzip payload: %v", err)
		}
		// The decompressed payload obeys the same cap as a raw one; one spare
		// byte detects overflow.
		body = io.LimitReader(gz, int64(maxCheckpointSize)+1)
	}
	var seqBuf [8]byte
	if _, err := io.ReadFull(body, seqBuf[:]); err != nil {
		return fail("truncated at its sequence")
	}
	seq := binary.BigEndian.Uint64(seqBuf[:])
	if headOnly {
		if seq != wantSeq {
			return fail("envelope sequence %d does not match filename sequence %d", seq, wantSeq)
		}
		head, err := transport.DecodeSnapshotHead(body)
		if err != nil {
			return fail("%v", err)
		}
		return head, compressed, nil
	}
	snap, err := transport.DecodeSnapshotFrame(body)
	if err != nil {
		return fail("%v", err)
	}
	var kc [4]byte
	if _, err := io.ReadFull(body, kc[:]); err != nil {
		return fail("truncated at its key-table count")
	}
	nkeys := binary.BigEndian.Uint32(kc[:])
	if nkeys > transport.IdempotencyHorizon {
		return fail("declares %d keys, limit %d", nkeys, transport.IdempotencyHorizon)
	}
	// One buffer for every entry, declared outside the loop: inside it, it
	// would escape through io.ReadFull's interface argument once per key.
	var entry keyEntry
	for i := uint32(0); i < nkeys; i++ {
		if _, err := io.ReadFull(body, entry[:1]); err != nil {
			return fail("truncated at key %d", i)
		}
		end := 1 + int(entry[0])
		if _, err := io.ReadFull(body, entry[1:end+8]); err != nil {
			return fail("truncated at key %d", i)
		}
		if eachKey != nil {
			eachKey(entry[1:end], int64(binary.BigEndian.Uint64(entry[end:])))
		}
	}
	// The logical payload must end exactly here. The read also drives a
	// gzipped stream through its trailer, so the gzip checksum is verified;
	// anything but a clean EOF — data, a malformed tail, a second gzip
	// stream — is trailing garbage.
	var one [1]byte
	if n, rerr := io.ReadFull(body, one[:]); n != 0 || rerr != io.EOF {
		return fail("trailing or malformed bytes after the key table")
	}
	if compressed {
		if err := gz.Close(); err != nil {
			return fail("gzip payload: %v", err)
		}
	}
	// The on-disk payload must end exactly at its declared length too: the
	// CRC is meaningless unless it covered every declared byte.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return transport.Snapshot{}, false, err
	}
	if cr.n != int64(plen) {
		return fail("declares %d payload bytes, carries %d", plen, cr.n)
	}
	if cr.crc.Sum32() != wantCRC {
		return fail("CRC mismatch")
	}
	if n, _ := f.Read(one[:]); n != 0 {
		return fail("trailing bytes after the payload")
	}
	if seq != wantSeq {
		return fail("envelope sequence %d does not match filename sequence %d", seq, wantSeq)
	}
	return snap, compressed, nil
}
