package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/protocol"
)

func sampleReports() []protocol.Report {
	bits := protocol.NewBitVec(9) // 1011 0001 1
	for _, i := range []int{0, 2, 3, 7, 8} {
		bits.Set(i)
	}
	return []protocol.Report{
		{Index: 3},
		{Index: -1 << 30},
		{Seed: 0xfeedface, Index: 7},
		{Bits: bits},
	}
}

func sampleRecord() Record {
	return Record{
		Epoch:   5,
		Key:     "00f1e2d3c4b5a6978877665544332211",
		Digest:  "deadbeefdeadbeef",
		Reports: sampleReports(),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for name, rec := range map[string]Record{
		"full":     sampleRecord(),
		"empty":    {},
		"unkeyed":  {Epoch: 9, Reports: []protocol.Report{{Index: 1}, {Index: 2}}},
		"nodigest": {Key: "k", Reports: sampleReports()},
	} {
		data, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeRecord(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Epoch != rec.Epoch || got.Key != rec.Key || got.Digest != rec.Digest {
			t.Fatalf("%s: header changed: %+v != %+v", name, got, rec)
		}
		if len(got.Reports) != len(rec.Reports) {
			t.Fatalf("%s: %d reports, want %d", name, len(got.Reports), len(rec.Reports))
		}
		for i := range rec.Reports {
			if !reflect.DeepEqual(got.Reports[i], rec.Reports[i]) {
				t.Fatalf("%s: report %d changed: %+v != %+v", name, i, got.Reports[i], rec.Reports[i])
			}
		}
	}
}

// The crash-consistency foundation: a record truncated at ANY byte offset
// must decode as exactly one of io.EOF (offset 0, a clean boundary) or a torn
// record — never as a valid record and never as a panic.
func TestRecordTornAtEveryOffset(t *testing.T) {
	data, err := AppendRecord(nil, sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off++ {
		_, err := DecodeRecord(bytes.NewReader(data[:off]))
		switch {
		case off == 0:
			if err != io.EOF {
				t.Fatalf("offset 0: got %v, want io.EOF", err)
			}
		default:
			if !errors.Is(err, ErrTornRecord) {
				t.Fatalf("offset %d: got %v, want a torn-record error", off, err)
			}
		}
	}
	if _, err := DecodeRecord(bytes.NewReader(data)); err != nil {
		t.Fatalf("untruncated record failed to decode: %v", err)
	}
}

func TestRecordRejectsCorruption(t *testing.T) {
	data, err := AppendRecord(nil, sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	flip := func(off int) []byte {
		out := append([]byte(nil), data...)
		out[off] ^= 0xff
		return out
	}
	cases := map[string][]byte{
		"bad magic":      flip(0),
		"bad version":    flip(4),
		"bad crc":        flip(5),
		"payload bitrot": flip(envelopeHeaderLen + 2),
	}
	for name, d := range cases {
		if _, err := DecodeRecord(bytes.NewReader(d)); !errors.Is(err, errInvalidRecord) {
			t.Fatalf("%s: got %v, want an invalid-record error", name, err)
		}
	}
	// A hostile length prefix over the cap must be rejected before allocation.
	big := append([]byte(nil), data...)
	big[9], big[10], big[11], big[12] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeRecord(bytes.NewReader(big)); !errors.Is(err, errInvalidRecord) {
		t.Fatalf("oversized payload length: got %v", err)
	}
}

// A CRC-valid payload that does not parse is the writer's own bytes gone
// wrong — recovery must refuse it loudly, not drop it as a torn tail.
func TestRecordCorruptPayloadIsNotTorn(t *testing.T) {
	rec := sampleRecord()
	data, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame the payload with a wrong declared report count but a correct
	// CRC for the altered bytes.
	payload := append([]byte(nil), data[envelopeHeaderLen:]...)
	countOff := 8 + 1 + len(rec.Key) + 1 + len(rec.Digest)
	payload[countOff+3]++ // declare one more report than the frames carry
	out := appendCRCAndLen(data[:5], payload)
	if _, err := DecodeRecord(bytes.NewReader(out)); !errors.Is(err, errCorruptRecord) {
		t.Fatalf("got %v, want a corrupt-record error", err)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		t.Run(fmt.Sprintf("fsync=%v", fsync), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal-00000000.log")
			w, err := openWALFile(path, fsync)
			if err != nil {
				t.Fatal(err)
			}
			const writers, each = 8, 25
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						data, err := AppendRecord(nil, Record{Epoch: 0, Key: fmt.Sprintf("g%d-%d", g, i), Reports: []protocol.Report{{Index: g*each + i}}})
						if err != nil {
							errs <- err
							return
						}
						if err := w.append(data); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			// Every record must be present, complete, and decodable.
			var rec Recovery
			if _, _, err := replaySegment(path, false, 0, true, Options{Replay: func(Record) error { return nil }}, &rec, newKeyTable()); err != nil {
				t.Fatal(err)
			}
			if rec.ReplayedRecords != writers*each || rec.DroppedTailBytes != 0 {
				t.Fatalf("replayed %d records (dropped %d bytes), want %d intact", rec.ReplayedRecords, rec.DroppedTailBytes, writers*each)
			}
		})
	}
}

// appendCRCAndLen re-frames a payload behind an existing magic+version prefix.
func appendCRCAndLen(prefix, payload []byte) []byte {
	out := append([]byte(nil), prefix...)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}
