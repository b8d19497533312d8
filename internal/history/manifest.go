package history

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
//	magic   [4]byte  "LDPH"
//	version uint8    (1)
//	crc     uint32   big-endian IEEE CRC-32 of the payload
//	length  uint32   big-endian payload byte count
//	payload:
//	  count uint32 big-endian, then count entries, sequence-ascending:
//	    seq       uint64 big-endian  checkpoint sequence (filename)
//	    epoch     uint64 big-endian  snapshot epoch the checkpoint pins
//	    countBits uint64 big-endian  IEEE-754 bits of the report count
//	    flags     uint8              bit0 = checkpoint payload is gzipped
const (
	// ManifestName is the manifest's filename within a data directory.
	ManifestName = "history.manifest"

	manifestMagic     = "LDPH"
	manifestVersion   = 1
	manifestHeaderLen = 4 + 1 + 4 + 4
	manifestEntryLen  = 8 + 8 + 8 + 1

	// MaxManifestEntries bounds a manifest read; the ladder keeps the real
	// count logarithmic, so the cap is pure hostile-input defense.
	MaxManifestEntries = 1 << 16

	entryFlagGzip = 1 << 0
)

var errInvalidManifest = errors.New("history: invalid manifest")

// Entry is one retained checkpoint in the manifest.
type Entry struct {
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

// EncodeManifest serializes entries, which must be sequence-ascending with
// nondecreasing epochs — the invariant DecodeManifest enforces.
func EncodeManifest(entries []Entry) ([]byte, error) {
	if len(entries) > MaxManifestEntries {
		return nil, fmt.Errorf("history: %d entries exceed the %d-entry manifest limit", len(entries), MaxManifestEntries)
	}
	payload := make([]byte, 0, 4+manifestEntryLen*len(entries))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(entries)))
	for i, e := range entries {
		if i > 0 && (e.Seq <= entries[i-1].Seq || e.Epoch < entries[i-1].Epoch) {
			return nil, fmt.Errorf("history: manifest entries out of order at %d", i)
		}
		if math.IsNaN(e.Count) || math.IsInf(e.Count, 0) || e.Count < 0 {
			return nil, fmt.Errorf("history: manifest entry %d count %v is not a non-negative finite number", i, e.Count)
		}
		payload = binary.BigEndian.AppendUint64(payload, e.Seq)
		payload = binary.BigEndian.AppendUint64(payload, e.Epoch)
		payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(e.Count))
		var flags byte
		if e.Compressed {
			flags |= entryFlagGzip
		}
		payload = append(payload, flags)
	}
	out := make([]byte, 0, manifestHeaderLen+len(payload))
	out = append(out, manifestMagic...)
	out = append(out, manifestVersion)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...), nil
}

// DecodeManifest parses one manifest. Any defect — short data, bad magic,
// CRC mismatch, trailing bytes, out-of-order entries, unknown flags —
// returns an error; the caller then rebuilds the index from the checkpoint
// files themselves.
func DecodeManifest(data []byte) ([]Entry, error) {
	fail := func(format string, args ...any) ([]Entry, error) {
		return nil, fmt.Errorf("%w: %s", errInvalidManifest, fmt.Sprintf(format, args...))
	}
	if len(data) < manifestHeaderLen {
		return fail("%d bytes is shorter than the header", len(data))
	}
	if string(data[:4]) != manifestMagic {
		return fail("bad magic %q", data[:4])
	}
	if data[4] != manifestVersion {
		return fail("unsupported version %d", data[4])
	}
	wantCRC := binary.BigEndian.Uint32(data[5:])
	plen := binary.BigEndian.Uint32(data[9:])
	payload := data[manifestHeaderLen:]
	if uint64(plen) != uint64(len(payload)) {
		return fail("declares %d payload bytes, carries %d", plen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return fail("CRC mismatch")
	}
	if len(payload) < 4 {
		return fail("truncated at its entry count")
	}
	count := binary.BigEndian.Uint32(payload)
	if count > MaxManifestEntries {
		return fail("declares %d entries, limit %d", count, MaxManifestEntries)
	}
	if len(payload) != 4+manifestEntryLen*int(count) {
		return fail("declares %d entries but carries %d payload bytes", count, len(payload))
	}
	entries := make([]Entry, 0, count)
	buf := payload[4:]
	for i := uint32(0); i < count; i++ {
		var e Entry
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

// WriteManifest atomically replaces dir's manifest: temp file, fsync, rename,
// directory fsync. A crash leaves either the old manifest or the complete new
// one — and either way the checkpoint files remain the ground truth a
// recovery can rebuild from.
func WriteManifest(dir string, entries []Entry) error {
	data, err := EncodeManifest(entries)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, ManifestName)); err != nil {
		return err
	}
	return SyncDir(dir)
}

// LoadManifest reads dir's manifest. A missing file returns (nil, nil) — a
// directory predating the manifest is not an error, just unindexed; a
// damaged file returns the decode error so the caller rebuilds.
func LoadManifest(dir string) ([]Entry, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(data) > manifestHeaderLen+4+manifestEntryLen*MaxManifestEntries {
		return nil, fmt.Errorf("%w: exceeds the manifest size limit", errInvalidManifest)
	}
	return DecodeManifest(data)
}

// SyncDir fsyncs a directory so renames and creations within it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
