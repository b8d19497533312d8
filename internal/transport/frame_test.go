package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// bitsOf builds a bit vector from literal bits.
func bitsOf(bs ...bool) protocol.BitVec {
	v := protocol.NewBitVec(len(bs))
	for i, b := range bs {
		if b {
			v.Set(i)
		}
	}
	return v
}

// EncodeReports writes one report-batch frame; encodeReportsBytes is the same
// into memory. Test-side conveniences over AppendReportsFrame.
func EncodeReports(w io.Writer, reports []protocol.Report) error {
	buf, err := encodeReportsBytes(reports)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func encodeReportsBytes(reports []protocol.Report) ([]byte, error) {
	return AppendReportsFrame(nil, reports)
}

func sampleReports() []protocol.Report {
	return []protocol.Report{
		{Index: 0},
		{Index: 42},
		{Index: -3}, // hostile index; the framing must carry it verbatim
		{Seed: 0xdeadbeefcafe, Index: 2},
		{Seed: math.MaxUint64, Index: 7},
		{Bits: bitsOf()},
		{Bits: bitsOf(true)},
		{Bits: bitsOf(true, false, true, true, false, false, true, false, true)},
	}
}

// parentFrameCounts is the cutting rule EncodeReportsChunked has always had,
// restated as a reference: encode report by report, and start a new frame
// where the next report would take the payload past MaxReportsPayload or the
// count past MaxBatchReports. The one cutter must reproduce it exactly.
func parentFrameCounts(reports []protocol.Report) []int {
	var counts []int
	count, plen := 0, 4
	for i := range reports {
		rl := len(appendReport(nil, &reports[i]))
		if plen+rl > MaxReportsPayload && count > 0 {
			counts = append(counts, count)
			count, plen = 0, 4
		}
		count, plen = count+1, plen+rl
		if count == MaxBatchReports {
			counts = append(counts, count)
			count, plen = 0, 4
		}
	}
	if count > 0 || len(reports) == 0 {
		counts = append(counts, count)
	}
	return counts
}

func TestReportsRoundTrip(t *testing.T) {
	for _, batch := range [][]protocol.Report{
		nil,
		{},
		sampleReports(),
	} {
		var buf bytes.Buffer
		if err := EncodeReports(&buf, batch); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeReports(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batch) {
			t.Fatalf("round trip: %d reports, want %d", len(got), len(batch))
		}
		for i := range batch {
			if !reflect.DeepEqual(got[i], batch[i]) {
				t.Fatalf("report %d: %+v != %+v", i, got[i], batch[i])
			}
		}
		// The stream is exhausted exactly at the frame boundary.
		if _, err := DecodeReports(&buf); err != ErrFrameEOF {
			t.Fatalf("want ErrFrameEOF after the last frame, got %v", err)
		}
	}
}

func TestReportsStream(t *testing.T) {
	var buf bytes.Buffer
	rng := rand.New(rand.NewSource(1))
	var want []protocol.Report
	for f := 0; f < 5; f++ {
		batch := make([]protocol.Report, rng.Intn(50))
		for i := range batch {
			batch[i] = protocol.Report{Index: rng.Intn(100), Seed: rng.Uint64()}
		}
		want = append(want, batch...)
		if err := EncodeReports(&buf, batch); err != nil {
			t.Fatal(err)
		}
	}
	var got []protocol.Report
	for {
		batch, err := DecodeReports(&buf)
		if err == ErrFrameEOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("frame stream did not round-trip")
	}
}

// EncodeReportsChunked must split batches that cannot fit one frame — by
// payload bytes (wide unary reports) and by report count — and the chunked
// stream must decode back to exactly the original batch.
func TestReportsChunkedRoundTrip(t *testing.T) {
	// 66 reports × 1 Mi bits ≈ 8.25 MiB of packed bits: just over one
	// frame's payload cap, forcing a byte-driven split well before the
	// count limit.
	const nbits = 1 << 20
	reports := make([]protocol.Report, 66)
	for i := range reports {
		bits := protocol.NewBitVec(nbits)
		for j := 0; j < 64; j++ {
			bits.Set((i*131 + j*977) % nbits)
		}
		reports[i] = protocol.Report{Index: i, Bits: bits}
	}
	var buf bytes.Buffer
	if err := EncodeReportsChunked(&buf, reports); err != nil {
		t.Fatal(err)
	}
	var got []protocol.Report
	var frames []int
	for {
		batch, err := DecodeReports(&buf)
		if err == ErrFrameEOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, len(batch))
		got = append(got, batch...)
	}
	if len(frames) < 2 {
		t.Fatalf("oversized batch landed in %d frame(s), expected a split", len(frames))
	}
	if want := parentFrameCounts(reports); !reflect.DeepEqual(frames, want) {
		t.Fatalf("frame boundaries %v, want the parent rule's %v", frames, want)
	}
	if len(got) != len(reports) {
		t.Fatalf("chunked round trip: %d reports, want %d", len(got), len(reports))
	}
	for i := range got {
		if got[i].Index != reports[i].Index || !reflect.DeepEqual(got[i].Bits, reports[i].Bits) {
			t.Fatalf("report %d mangled by chunking", i)
		}
	}

	// A single report over the bit cap cannot be split — clear error.
	if err := EncodeReportsChunked(&buf, []protocol.Report{{Bits: protocol.NewBitVec(MaxReportBits + 1)}}); err == nil {
		t.Fatal("unencodable report accepted")
	}
	// The single-frame encoder enforces the same cap.
	if err := EncodeReports(&buf, []protocol.Report{{Bits: protocol.NewBitVec(MaxReportBits + 1)}}); err == nil {
		t.Fatal("unencodable report accepted by EncodeReports")
	}

	// An empty batch still produces one decodable (empty) frame.
	buf.Reset()
	if err := EncodeReportsChunked(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if batch, err := DecodeReports(&buf); err != nil || len(batch) != 0 {
		t.Fatalf("empty chunked batch: %v %v", batch, err)
	}
}

func TestReportsChunkedCountLimit(t *testing.T) {
	// Tiny reports in excess of MaxBatchReports split by count.
	reports := make([]protocol.Report, MaxBatchReports+3)
	for i := range reports {
		reports[i] = protocol.Report{Index: i & 0xff}
	}
	var buf bytes.Buffer
	if err := EncodeReportsChunked(&buf, reports); err != nil {
		t.Fatal(err)
	}
	first, err := DecodeReports(&buf)
	if err != nil {
		t.Fatal(err)
	}
	second, err := DecodeReports(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != MaxBatchReports || len(second) != 3 {
		t.Fatalf("split %d + %d, want %d + 3", len(first), len(second), MaxBatchReports)
	}
	if want := parentFrameCounts(reports); !reflect.DeepEqual(want, []int{MaxBatchReports, 3}) {
		t.Fatalf("the reference rule cuts %v here", want)
	}
}

// The cost shape the wire-form bit vector buys: decoding a unary frame makes
// the same three allocations — the header readFrame reads into, the payload
// and the []Report — whether the frame holds 32 reports or 256. Each decoded
// vector aliases the payload; none is unpacked.
func TestDecodeReportsAllocShape(t *testing.T) {
	allocs := func(count int) float64 {
		reports := make([]protocol.Report, count)
		for i := range reports {
			reports[i].Bits = protocol.NewBitVec(256)
			reports[i].Bits.Set(i)
			reports[i].Bits.Set(255 - i%7)
		}
		frame, err := encodeReportsBytes(reports)
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(frame)
		return testing.AllocsPerRun(50, func() {
			r.Reset(frame)
			if got, err := DecodeReports(r); err != nil || len(got) != count || !got[count-1].Bits.Get(count-1) {
				t.Fatalf("decode of %d reports: %d, %v", count, len(got), err)
			}
		})
	}
	if small, large := allocs(32), allocs(256); small != large || large > 3 {
		t.Fatalf("DecodeReports allocates %v times for 32 OUE reports and %v for 256; want the same count, at most 3", small, large)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	state := []float64{0, 1.5, 2.25, math.MaxFloat64, 1e-300}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, state, 12345); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshotFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 12345 || !reflect.DeepEqual(got.State, state) {
		t.Fatalf("snapshot round trip: count %v, state %v", got.Count, got.State)
	}
	// Zero-length state round-trips too.
	buf.Reset()
	if err := EncodeSnapshot(&buf, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeSnapshotFrame(&buf); err != nil || got.Count != 0 || len(got.State) != 0 {
		t.Fatalf("empty snapshot round trip: %+v %v", got, err)
	}
}

// mutateFrame returns a valid encoded frame with one edit applied.
func validFrame(t *testing.T) []byte {
	t.Helper()
	b, err := encodeReportsBytes(sampleReports())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDecodeReportsRejectsMalformed(t *testing.T) {
	base := validFrame(t)
	cases := map[string][]byte{
		"empty":            {},
		"short header":     base[:5],
		"truncated body":   base[:len(base)-3],
		"bad magic":        append([]byte("NOPE"), base[4:]...),
		"bad version":      mutate(base, 4, 9),
		"wrong kind":       mutate(base, 5, kindSnapshot),
		"trailing payload": lengthened(base),
	}
	for name, data := range cases {
		if _, err := DecodeReports(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: decoded without error", name)
		} else if err == ErrFrameEOF && name != "empty" {
			t.Fatalf("%s: masked as clean EOF", name)
		}
	}
	// "empty" is the one clean-EOF case.
	if _, err := DecodeReports(bytes.NewReader(nil)); err != ErrFrameEOF {
		t.Fatalf("empty stream: want ErrFrameEOF, got %v", err)
	}
}

func TestDecodeReportsRejectsHostileLengths(t *testing.T) {
	// Declared payload length over the frame limit: rejected before any
	// allocation or read.
	hdr := make([]byte, headerLen)
	copy(hdr, frameMagic)
	hdr[4] = frameVersion
	hdr[5] = kindReports
	binary.BigEndian.PutUint32(hdr[6:], MaxReportsPayload+1)
	if _, err := DecodeReports(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized payload length: %v", err)
	}

	// Declared report count that cannot fit the actual payload.
	frame := frameWithPayload(kindReports, binary.BigEndian.AppendUint32(nil, 1<<16))
	if _, err := DecodeReports(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "not fit") {
		t.Fatalf("hostile count: %v", err)
	}

	// Declared bit width over the per-report limit.
	payload := binary.BigEndian.AppendUint32(nil, 1)
	payload = append(payload, flagBits)            // flags
	payload = append(payload, 0)                   // index 0
	payload = binary.AppendUvarint(payload, 1<<40) // nbits, absurd
	payload = append(payload, make([]byte, 1024)...)
	frame = frameWithPayload(kindReports, payload)
	if _, err := DecodeReports(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "bits") {
		t.Fatalf("hostile bit width: %v", err)
	}

	// Nonzero padding bits break the one-encoding property.
	payload = binary.BigEndian.AppendUint32(nil, 1)
	payload = append(payload, flagBits, 0)
	payload = binary.AppendUvarint(payload, 3)
	payload = append(payload, 0xFF) // bits 3..7 must be zero
	frame = frameWithPayload(kindReports, payload)
	if _, err := DecodeReports(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), "padding") {
		t.Fatalf("nonzero padding: %v", err)
	}
}

func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, []float64{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()
	for name, data := range map[string][]byte{
		"truncated":       base[:len(base)-1],
		"length mismatch": lengthened(base),
		"nan count":       mutate(base, headerLen, 0x7F, 0xF8, 0, 0, 0, 0, 0, 1),
	} {
		if _, err := DecodeSnapshotFrame(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}
}

func mutate(b []byte, at int, with ...byte) []byte {
	out := append([]byte(nil), b...)
	copy(out[at:], with)
	return out
}

// lengthened declares one more payload byte than the frame carries… and then
// appends two, so the payload parses with a trailing byte.
func lengthened(b []byte) []byte {
	out := append([]byte(nil), b...)
	n := binary.BigEndian.Uint32(out[6:])
	binary.BigEndian.PutUint32(out[6:], n+1)
	return append(out, 0)
}

func frameWithPayload(kind byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameVersion, kind, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// EncodeSnapshot writes one version-1 snapshot frame (bare accumulator, no
// identity). Current producers write EncodeSnapshotFrame; this writer is kept
// so compatibility with version-1 readers — and the golden files pinning the
// v1 layout — can be exercised.
func EncodeSnapshot(w io.Writer, state []float64, count float64) error {
	if 12+8*len(state) > MaxSnapshotPayload {
		return fmt.Errorf("transport: %d-entry state exceeds the snapshot frame limit", len(state))
	}
	buf := make([]byte, 12+8*len(state))
	binary.BigEndian.PutUint64(buf, math.Float64bits(count))
	binary.BigEndian.PutUint32(buf[8:], uint32(len(state)))
	for i, v := range state {
		binary.BigEndian.PutUint64(buf[12+8*i:], math.Float64bits(v))
	}
	return writeFrame(w, 1, kindSnapshot, buf)
}
