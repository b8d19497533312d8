package durable

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/protocol"
)

// FuzzDecodeWALRecord feeds arbitrary bytes to the WAL record decoder — the
// parser recovery trusts with whatever a crash left on disk. The decoder must
// return an error or a record, never panic, and never allocate proportionally
// to a hostile length prefix; anything it accepts must re-encode (under the
// same epoch/key/digest) and re-decode to the identical record, because
// recovery's correctness rests on the format being unambiguous.
func FuzzDecodeWALRecord(f *testing.F) {
	seed := func(rec Record) {
		data, err := AppendRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(Record{})
	seed(sampleRecord())
	seed(Record{Epoch: 1 << 40, Key: "k", Reports: []protocol.Report{{Index: -1}}})
	one := protocol.NewBitVec(1)
	one.Set(0)
	seed(Record{Digest: "d", Reports: []protocol.Report{{Bits: one}, {Seed: 9, Index: 2}}})
	// Two records back to back, so mutations explore the record boundary.
	a, err := AppendRecord(nil, Record{Reports: []protocol.Report{{Index: 1}}})
	if err != nil {
		f.Fatal(err)
	}
	b, err := AppendRecord(nil, Record{Key: "x", Reports: []protocol.Report{{Index: 2}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), a...), b...))
	f.Add([]byte("LDPW"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			rec, err := DecodeRecord(r)
			if err != nil {
				return // EOF, torn, invalid, or corrupt — all fine, no panic is the point
			}
			reenc, err := AppendRecord(nil, rec)
			if err != nil {
				t.Fatalf("decoded record failed to re-encode: %v", err)
			}
			back, err := DecodeRecord(bytes.NewReader(reenc))
			if err != nil {
				t.Fatalf("re-encoded record failed to decode: %v", err)
			}
			if back.Epoch != rec.Epoch || back.Key != rec.Key || back.Digest != rec.Digest || len(back.Reports) != len(rec.Reports) {
				t.Fatalf("record changed across re-encode: %+v != %+v", back, rec)
			}
			for i := range rec.Reports {
				if !reflect.DeepEqual(back.Reports[i], rec.Reports[i]) {
					t.Fatalf("report %d changed across re-encode: %+v != %+v", i, back.Reports[i], rec.Reports[i])
				}
			}
		}
	})
}

// FuzzDecodeBinding feeds arbitrary bytes to the binding-record decoder — the
// bytes a router trusts, after a crash, to say which shard already holds a
// key. Like the WAL decoder it must return an error or a binding, never
// panic, never allocate past the record kind's cap, and never accept a record
// of another version; anything it accepts must re-encode to bytes that decode
// to the identical binding.
func FuzzDecodeBinding(f *testing.F) {
	valid, err := AppendBinding(nil, Binding{Key: "0123456789abcdef", Endpoint: "http://shard-1.internal:8089"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:envelopeHeaderLen-2]) // torn header
	f.Add(valid[:len(valid)-3])        // torn payload
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 0x01
	f.Add(badCRC)
	v1, err := AppendRecord(nil, sampleRecord()) // a WAL record is not a binding
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	// Two records back to back, so mutations explore the record boundary.
	two, err := AppendBinding(append([]byte(nil), valid...), Binding{Key: "k", Endpoint: "e"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(two)
	f.Add([]byte("LDPW"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			b, err := DecodeBinding(r)
			if err != nil {
				return // EOF, torn, invalid, or corrupt — all fine, no panic is the point
			}
			reenc, err := AppendBinding(nil, b)
			if err != nil {
				t.Fatalf("decoded binding %+v failed to re-encode: %v", b, err)
			}
			back, err := DecodeBinding(bytes.NewReader(reenc))
			if err != nil {
				t.Fatalf("re-encoded binding failed to decode: %v", err)
			}
			if back != b {
				t.Fatalf("binding changed across re-encode: %+v != %+v", back, b)
			}
		}
	})
}
