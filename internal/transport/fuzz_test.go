package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/protocol"
)

// FuzzDecodeReportFrame feeds arbitrary bytes to the report-frame decoder.
// The decoder must return an error or a batch — never panic — and anything
// it accepts must re-encode and re-decode to the same batch (the frame
// format is unambiguous within a version). Over-allocation is covered too:
// a decoder that trusted a hostile length prefix would OOM the fuzz process.
func FuzzDecodeReportFrame(f *testing.F) {
	seed := func(reports []protocol.Report) {
		b, err := encodeReportsBytes(reports)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(nil)
	seed(sampleReportsF())
	seed([]protocol.Report{{Index: 1 << 30}, {Index: -1 << 30}})
	// A two-frame stream, so mutations explore frame boundaries.
	var multi bytes.Buffer
	if err := EncodeReports(&multi, []protocol.Report{{Index: 1}}); err != nil {
		f.Fatal(err)
	}
	if err := EncodeReports(&multi, []protocol.Report{{Seed: 7, Index: 2}}); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.Bytes())
	f.Add([]byte("LDPF"))
	f.Add([]byte{})
	// The bit-vector field is adopted in place, not unpacked, so its edge
	// shapes are seeded by hand: a width that is not a multiple of 8, a
	// present-but-empty vector, and the encodings ParseBitVec must refuse.
	n19 := protocol.NewBitVec(19)
	n19.Set(0)
	n19.Set(18)
	seed([]protocol.Report{{Bits: n19}, {Bits: protocol.NewBitVec(0)}})
	unary := func(field ...byte) {
		payload := append([]byte{0, 0, 0, 1, flagBits, 0}, field...)
		f.Add(frameWithPayload(kindReports, payload))
	}
	unary(19, 0x01, 0x00, 0x0C)                               // bit 19 set: nonzero padding
	unary(binary.AppendUvarint(nil, MaxReportBits+1)...)      // count over the cap
	unary(0x83, 0x00, 0x05)                                   // 3 bits, count varint one byte too long
	unary(append(bytes.Repeat([]byte{0x80}, 10), 0x01, 0)...) // count varint over 64 bits

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			reports, err := DecodeReports(r)
			if err != nil {
				return // ErrFrameEOF or a rejection — both fine, no panic is the point
			}
			for i, rep := range reports {
				// What Unary.Absorb relies on: no set bit at or past Len.
				packed := rep.Bits.Packed()
				if n := rep.Bits.Len(); len(packed) != (n+7)/8 || n&7 != 0 && packed[len(packed)-1]>>(n&7) != 0 {
					t.Fatalf("report %d: adopted a malformed %d-bit vector % x", i, n, rep.Bits.Wire())
				}
			}
			reencoded, err := encodeReportsBytes(reports)
			if err != nil {
				t.Fatalf("decoded batch failed to re-encode: %v", err)
			}
			back, err := DecodeReports(bytes.NewReader(reencoded))
			if err != nil {
				t.Fatalf("re-encoded batch failed to decode: %v", err)
			}
			if len(back) != len(reports) {
				t.Fatalf("re-decode changed batch size: %d != %d", len(back), len(reports))
			}
			for i := range back {
				if !reflect.DeepEqual(back[i], reports[i]) {
					t.Fatalf("report %d changed across re-encode: %+v != %+v", i, back[i], reports[i])
				}
			}
		}
	})
}

// FuzzDecodeSnapshotFrame is the same contract for the snapshot decoder,
// which reads both frame versions: anything accepted must survive a v2
// re-encode bit-for-bit (v1 input re-encodes with zero epoch/identity, which
// is exactly what it declared).
func FuzzDecodeSnapshotFrame(f *testing.F) {
	var v1 bytes.Buffer
	if err := EncodeSnapshot(&v1, []float64{1, 2.5, -3}, 3); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	var v2 bytes.Buffer
	if err := EncodeSnapshotFrame(&v2, Snapshot{
		State: []float64{4, 0, 9}, Count: 13, Epoch: 7,
		Info: Info{Mechanism: "OLH", Domain: 3, Epsilon: 1.25, Digest: "deadbeefdeadbeef"},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshotFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeSnapshotFrame(&out, s); err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		s2, err := DecodeSnapshotFrame(&out)
		if err != nil || s2.Count != s.Count || s2.Epoch != s.Epoch || s2.Info != s.Info || len(s2.State) != len(s.State) {
			t.Fatalf("snapshot changed across re-encode: %+v vs %+v (%v)", s2, s, err)
		}
		for i := range s.State {
			// Bit-level comparison: NaN state entries are legal payload and
			// must survive verbatim, and NaN != NaN under ==.
			if math.Float64bits(s2.State[i]) != math.Float64bits(s.State[i]) {
				t.Fatalf("state[%d] changed across re-encode", i)
			}
		}
	})
}

// FuzzDecodeQueryFrame is the same contract for the query-request decoder:
// arbitrary bytes must produce an error or a request — never a panic or an
// over-allocation — and any accepted request must survive a re-encode
// unchanged, since the decoder re-validates every invariant the encoder
// enforces (lengths, domain cap, flag bits, CI-level coupling).
func FuzzDecodeQueryFrame(f *testing.F) {
	seed := func(q QueryRequest) {
		var buf bytes.Buffer
		if err := EncodeQueryFrame(&buf, q); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(QueryRequest{Workload: "Histogram"})
	seed(QueryRequest{Workload: "Prefix", Domain: 256, Digest: "00f1e2d3c4b5a697", WantVariance: true})
	seed(QueryRequest{Workload: "AllRange", Domain: MaxQueryDomain, Level: 0.95, WantVariance: true, WantCI: true})
	f.Add([]byte("LDPF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := DecodeQueryFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeQueryFrame(&out, q); err != nil {
			t.Fatalf("decoded query failed to re-encode: %v", err)
		}
		q2, err := DecodeQueryFrame(&out)
		if err != nil {
			t.Fatalf("re-encoded query failed to decode: %v", err)
		}
		// Bit-level level comparison: the CI level rides as raw IEEE-754 bits.
		if q2.Workload != q.Workload || q2.Digest != q.Digest || q2.Domain != q.Domain ||
			q2.WantVariance != q.WantVariance || q2.WantCI != q.WantCI ||
			math.Float64bits(q2.Level) != math.Float64bits(q.Level) {
			t.Fatalf("query changed across re-encode: %+v vs %+v", q2, q)
		}
	})
}

func sampleReportsF() []protocol.Report {
	return []protocol.Report{
		{Index: 3},
		{Seed: 0x1234, Index: 1},
		{Bits: bitsOf(true, false, true)},
	}
}
