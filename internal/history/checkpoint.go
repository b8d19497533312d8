package history

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

// Streaming checkpoint I/O. The file format is the durable layer's "LDPC"
// envelope; this writer produces version-1 files byte-identical to the
// buffered encoder while never materializing the payload (the state streams
// through a fixed chunk, the CRC accumulates incrementally, and the header is
// patched in place before the atomic rename), and adds version 2, whose
// payload is the gzip stream of the version-1 payload — worthwhile for the
// unary mechanisms, whose accumulators are long runs of small integers:
//
//	magic   [4]byte  "LDPC"
//	version uint8    (1 = raw payload, 2 = gzip-compressed payload)
//	crc     uint32   big-endian IEEE CRC-32 of the on-disk payload bytes
//	length  uint32   big-endian on-disk payload byte count
//	payload (after decompression for version 2):
//	  seq      uint64 big-endian  segment sequence this checkpoint precedes
//	  snapshot one v2 snapshot frame (transport.EncodeSnapshotFrame)
//	  keyCount uint32 big-endian, then keyCount entries, oldest first:
//	    keyLen uint8, then keyLen bytes    idempotency key
//	    reports uint64 big-endian          reports absorbed under the key
const (
	checkpointMagic     = "LDPC"
	checkpointV1        = 1
	checkpointV2        = 2
	checkpointHeaderLen = 4 + 1 + 4 + 4

	// MaxTrackedKeys bounds the idempotency-key table a checkpoint carries:
	// the idempotency horizon, which the transport states once.
	MaxTrackedKeys = transport.IdempotencyHorizon

	// maxCheckpointKey bounds one key's byte length (one length byte on the
	// wire).
	maxCheckpointKey = 255

	// MaxCheckpointSize bounds a checkpoint payload after decompression:
	// envelope + the transport's snapshot frame cap + a full key table.
	MaxCheckpointSize = transport.MaxSnapshotPayload + MaxTrackedKeys*(2+maxCheckpointKey+8) + 1024
)

// KeyCount is one idempotency key's checkpointed total: how many reports the
// log proves were absorbed under it.
type KeyCount struct {
	Key     string
	Reports int64
}

var errInvalidCheckpoint = errors.New("history: invalid checkpoint file")

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
func writePayload(w io.Writer, seq uint64, snap transport.Snapshot, keys []KeyCount) error {
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
	for _, k := range keys {
		if _, err := w.Write([]byte{byte(len(k.Key))}); err != nil {
			return err
		}
		if _, err := io.WriteString(w, k.Key); err != nil {
			return err
		}
		binary.BigEndian.PutUint64(b[:], uint64(k.Reports))
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCheckpointFile writes checkpoint seq atomically into dir under the
// durable layer's filename convention: temp file, streamed payload, patched
// header, fsync, rename, directory fsync. A crash leaves either the old
// directory contents or the complete new file. compress selects the gzipped
// version-2 payload; off, the output is byte-identical to the buffered
// version-1 encoder. Returns the final path.
func WriteCheckpointFile(dir string, seq uint64, snap transport.Snapshot, keys []KeyCount, compress bool) (string, error) {
	if len(keys) > MaxTrackedKeys {
		keys = keys[len(keys)-MaxTrackedKeys:] // newest win, as in the LRU
	}
	for _, k := range keys {
		if len(k.Key) > maxCheckpointKey {
			return "", fmt.Errorf("history: checkpoint key exceeds %d bytes", maxCheckpointKey)
		}
	}
	if _, err := transport.SnapshotFrameLen(snap); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	abort := func(err error) (string, error) {
		tmp.Close()
		return "", err
	}
	// Header placeholder; the CRC and length are known only after the stream.
	var hdr [checkpointHeaderLen]byte
	if _, err := tmp.Write(hdr[:]); err != nil {
		return abort(err)
	}
	cw := &crcWriter{w: tmp, crc: crc32.NewIEEE()}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if compress {
		gz := gzip.NewWriter(bw)
		if err := writePayload(gz, seq, snap, keys); err != nil {
			return abort(err)
		}
		if err := gz.Close(); err != nil {
			return abort(err)
		}
	} else if err := writePayload(bw, seq, snap, keys); err != nil {
		return abort(err)
	}
	if err := bw.Flush(); err != nil {
		return abort(err)
	}
	if cw.n > int64(MaxCheckpointSize) {
		return abort(fmt.Errorf("history: checkpoint payload exceeds the %d-byte limit", MaxCheckpointSize))
	}
	copy(hdr[:4], checkpointMagic)
	if compress {
		hdr[4] = checkpointV2
	} else {
		hdr[4] = checkpointV1
	}
	binary.BigEndian.PutUint32(hdr[5:], cw.crc.Sum32())
	binary.BigEndian.PutUint32(hdr[9:], uint32(cw.n))
	if _, err := tmp.WriteAt(hdr[:], 0); err != nil {
		return abort(err)
	}
	if err := tmp.Sync(); err != nil {
		return abort(err)
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	final := filepath.Join(dir, fmt.Sprintf("checkpoint-%08d.ckpt", seq))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", err
	}
	return final, syncDir(dir)
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

// ReadCheckpointFile reads and validates one checkpoint file of either
// version, streaming — the state is decoded chunk by chunk, never via a
// second whole-payload buffer. The envelope's sequence is pinned to wantSeq
// (the filename's), the CRC must cover exactly the declared payload, and any
// trailing byte — inside the payload or after it — is an error. Returns the
// pinned snapshot, the key table, and whether the payload was compressed.
func ReadCheckpointFile(path string, wantSeq uint64) (transport.Snapshot, []KeyCount, bool, error) {
	fail := func(format string, args ...any) (transport.Snapshot, []KeyCount, bool, error) {
		return transport.Snapshot{}, nil, false, fmt.Errorf("%w: %s", errInvalidCheckpoint, fmt.Sprintf(format, args...))
	}
	f, err := os.Open(path)
	if err != nil {
		return transport.Snapshot{}, nil, false, err
	}
	defer f.Close()
	var hdr [checkpointHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fail("shorter than the header")
	}
	if string(hdr[:4]) != checkpointMagic {
		return fail("bad magic %q", hdr[:4])
	}
	version := hdr[4]
	if version != checkpointV1 && version != checkpointV2 {
		return fail("unsupported version %d", version)
	}
	wantCRC := binary.BigEndian.Uint32(hdr[5:])
	plen := binary.BigEndian.Uint32(hdr[9:])
	if uint64(plen) > uint64(MaxCheckpointSize) {
		return fail("declares %d payload bytes, over the %d-byte limit", plen, MaxCheckpointSize)
	}
	cr := &crcReader{r: io.LimitReader(f, int64(plen)), crc: crc32.NewIEEE()}
	var body io.Reader = bufio.NewReaderSize(cr, 1<<16)
	compressed := version == checkpointV2
	var gz *gzip.Reader
	if compressed {
		if gz, err = gzip.NewReader(body); err != nil {
			return fail("gzip payload: %v", err)
		}
		// The decompressed payload obeys the same cap as a raw one; one spare
		// byte detects overflow.
		body = io.LimitReader(gz, int64(MaxCheckpointSize)+1)
	}
	var seqBuf [8]byte
	if _, err := io.ReadFull(body, seqBuf[:]); err != nil {
		return fail("truncated at its sequence")
	}
	seq := binary.BigEndian.Uint64(seqBuf[:])
	snap, err := transport.DecodeSnapshotFrame(body)
	if err != nil {
		return fail("%v", err)
	}
	var kc [4]byte
	if _, err := io.ReadFull(body, kc[:]); err != nil {
		return fail("truncated at its key-table count")
	}
	nkeys := binary.BigEndian.Uint32(kc[:])
	if nkeys > MaxTrackedKeys {
		return fail("declares %d keys, limit %d", nkeys, MaxTrackedKeys)
	}
	keys := make([]KeyCount, 0, nkeys)
	for i := uint32(0); i < nkeys; i++ {
		var l [1]byte
		if _, err := io.ReadFull(body, l[:]); err != nil {
			return fail("truncated at key %d", i)
		}
		kb := make([]byte, int(l[0])+8)
		if _, err := io.ReadFull(body, kb); err != nil {
			return fail("truncated at key %d", i)
		}
		keys = append(keys, KeyCount{
			Key:     string(kb[:l[0]]),
			Reports: int64(binary.BigEndian.Uint64(kb[l[0]:])),
		})
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
		return transport.Snapshot{}, nil, false, err
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
	return snap, keys, compressed, nil
}
