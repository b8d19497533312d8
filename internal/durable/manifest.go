package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// The manifest indexes the retained checkpoints of one data directory:
// epoch → checkpoint sequence, plus the count and compression of each, so a
// historical read resolves to a file without opening every checkpoint. It is
// an index, not ground truth — the checkpoint files are — so a damaged or
// missing manifest is rebuilt from the directory, never trusted over it.
//
// Its envelope is "LDPH", version 1, and its payload is
//
//	count uint32 big-endian, then count entries, sequence-ascending:
//	  seq       uint64 big-endian  checkpoint sequence (filename)
//	  epoch     uint64 big-endian  snapshot epoch the checkpoint pins
//	  countBits uint64 big-endian  IEEE-754 bits of the report count
//	  flags     uint8              bit0 = checkpoint payload is gzipped
const (
	// manifestName is the manifest's filename within a data directory.
	manifestName = "history.manifest"

	manifestMagic    = "LDPH"
	manifestVersion  = 1
	manifestEntryLen = 8 + 8 + 8 + 1

	// maxManifestEntries bounds a manifest read; the ladder keeps the real
	// count logarithmic, so the cap is pure hostile-input defense.
	maxManifestEntries = 1 << 16

	// maxManifestPayload is the payload of a manifest at the entry cap.
	maxManifestPayload = 4 + manifestEntryLen*maxManifestEntries

	entryFlagGzip = 1 << 0
)

var errInvalidManifest = errors.New("durable: invalid manifest")

// manifestEntry is one retained checkpoint in the manifest.
type manifestEntry struct {
	// Seq is the checkpoint's sequence number (its filename).
	Seq uint64
	// Epoch is the snapshot epoch the checkpoint pins — what SnapshotAt
	// resolves against.
	Epoch uint64
	// Count is the report count of the pinned snapshot.
	Count float64
	// Compressed records whether the checkpoint payload is gzipped.
	Compressed bool
}

// encodeManifest serializes entries, which must be sequence-ascending with
// nondecreasing epochs — the invariant decodeManifest enforces.
func encodeManifest(entries []manifestEntry) ([]byte, error) {
	if len(entries) > maxManifestEntries {
		return nil, fmt.Errorf("durable: %d entries exceed the %d-entry manifest limit", len(entries), maxManifestEntries)
	}
	out := make([]byte, 0, envelopeHeaderLen+4+manifestEntryLen*len(entries))
	out = beginEnvelope(out, manifestMagic, manifestVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(entries)))
	for i, e := range entries {
		if i > 0 && (e.Seq <= entries[i-1].Seq || e.Epoch < entries[i-1].Epoch) {
			return nil, fmt.Errorf("durable: manifest entries out of order at %d", i)
		}
		if math.IsNaN(e.Count) || math.IsInf(e.Count, 0) || e.Count < 0 {
			return nil, fmt.Errorf("durable: manifest entry %d count %v is not a non-negative finite number", i, e.Count)
		}
		out = binary.BigEndian.AppendUint64(out, e.Seq)
		out = binary.BigEndian.AppendUint64(out, e.Epoch)
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(e.Count))
		var flags byte
		if e.Compressed {
			flags |= entryFlagGzip
		}
		out = append(out, flags)
	}
	payload := out[envelopeHeaderLen:]
	sealEnvelope(out, crc32.ChecksumIEEE(payload), len(payload))
	return out, nil
}

// decodeManifest reads one manifest, which must be all r holds. Any defect —
// short data, bad magic, a length over the entry cap, CRC mismatch, trailing
// bytes, out-of-order entries, unknown flags — returns an error wrapping
// errInvalidManifest; the caller then rebuilds the index from the checkpoint
// files themselves. The declared length is checked before the payload is
// allocated, and trailing data is detected by reading one byte past the
// payload, so a hostile file costs at most one capped payload.
func decodeManifest(r io.Reader) ([]manifestEntry, error) {
	fail := func(format string, args ...any) ([]manifestEntry, error) {
		return nil, fmt.Errorf("%w: %s", errInvalidManifest, fmt.Sprintf(format, args...))
	}
	// A short read is the file's defect; a failed one is returned as is.
	short := func(err error, format string, args ...any) ([]manifestEntry, error) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fail(format, args...)
		}
		return nil, err
	}
	var hdr [envelopeHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return short(err, "shorter than the header")
	}
	_, wantCRC, plen, err := checkHeader(hdr[:], manifestMagic, maxManifestPayload, manifestVersion)
	if err != nil {
		return fail("%v", err)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return short(err, "declares %d payload bytes, carries fewer", plen)
	}
	var one [1]byte
	if n, err := io.ReadFull(r, one[:]); n != 0 {
		return fail("trailing bytes after the %d-byte payload", plen)
	} else if err != io.EOF {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return fail("CRC mismatch")
	}
	if len(payload) < 4 {
		return fail("truncated at its entry count")
	}
	count := binary.BigEndian.Uint32(payload)
	if len(payload) != 4+manifestEntryLen*int(count) {
		return fail("declares %d entries but carries %d payload bytes", count, len(payload))
	}
	entries := make([]manifestEntry, 0, count)
	buf := payload[4:]
	for i := uint32(0); i < count; i++ {
		var e manifestEntry
		e.Seq = binary.BigEndian.Uint64(buf)
		e.Epoch = binary.BigEndian.Uint64(buf[8:])
		e.Count = math.Float64frombits(binary.BigEndian.Uint64(buf[16:]))
		flags := buf[24]
		if flags&^byte(entryFlagGzip) != 0 {
			return fail("entry %d has unknown flag bits %#x", i, flags)
		}
		e.Compressed = flags&entryFlagGzip != 0
		if math.IsNaN(e.Count) || math.IsInf(e.Count, 0) || e.Count < 0 {
			return fail("entry %d count %v is not a non-negative finite number", i, e.Count)
		}
		if n := len(entries); n > 0 && (e.Seq <= entries[n-1].Seq || e.Epoch < entries[n-1].Epoch) {
			return fail("entries out of order at %d", i)
		}
		entries = append(entries, e)
		buf = buf[manifestEntryLen:]
	}
	return entries, nil
}

// writeManifest atomically replaces dir's manifest. A crash leaves either the
// old manifest or the complete new one — and either way the checkpoint files
// remain the ground truth a recovery can rebuild from.
func writeManifest(dir string, entries []manifestEntry) error {
	data, err := encodeManifest(entries)
	if err != nil {
		return err
	}
	return ReplaceFile(filepath.Join(dir, manifestName), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// loadManifest reads dir's manifest. A missing file returns (nil, nil) — a
// directory predating the manifest is not an error, just unindexed; a
// damaged file returns the decode error so the caller rebuilds.
func loadManifest(dir string) ([]manifestEntry, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeManifest(f)
}
