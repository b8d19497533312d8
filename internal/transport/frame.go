// Package transport carries the streaming protocol's Report batches and
// collector snapshots across a process boundary: a compact length-prefixed
// binary framing (this file) bound to HTTP (server.go, client.go). The
// framing is mechanism-agnostic — it moves protocol.Report values verbatim —
// so one server binary fronts any Randomizer/Aggregator pair.
//
// # Frame format
//
// Every frame is
//
//	magic   [4]byte  "LDPF"
//	version uint8    (reports: 1; snapshots: 1 or 2)
//	kind    uint8    (1 = report batch, 2 = snapshot)
//	length  uint32   big-endian payload byte count
//	payload [length]byte
//
// A report-batch payload is
//
//	count uint32 big-endian, then count reports, each:
//	  flags uint8          bit0 = has Seed, bit1 = has Bits
//	  index uvarint        zigzag-encoded Report.Index
//	  seed  uvarint        only when bit0 is set
//	  nbits uvarint        only when bit1 is set; minimally encoded
//	  bits  ⌈nbits/8⌉ bytes LSB-first packed booleans, spare bits zero
//
// nbits+bits is the bit-vector field; protocol.BitVec, the in-memory form of
// Report.Bits, is this field byte for byte.
//
// A version-1 snapshot payload is the bare accumulator:
//
//	count    float64 big-endian IEEE-754 bits
//	stateLen uint32  big-endian
//	state    stateLen × float64 big-endian IEEE-754 bits
//
// A version-2 snapshot payload prefixes the state with the snapshot's
// identity, so a fan-in reader can reject a mismatched shard before touching
// a single state entry:
//
//	count     float64 big-endian IEEE-754 bits
//	epoch     uint64  big-endian (monotonic per producing collector)
//	domain    uint32  big-endian
//	epsilon   float64 big-endian IEEE-754 bits (0 = undeclared)
//	mechLen   uint8, then mechLen bytes   (mechanism name, may be empty)
//	digestLen uint8, then digestLen bytes (mechanism digest, may be empty)
//	stateLen  uint32  big-endian
//	state     stateLen × float64 big-endian IEEE-754 bits
//
// Writers emit version 2; readers accept both, so a new fan-in reader can
// merge snapshots from an old ldpserve (the metadata simply comes back empty).
//
// Decoders are strict: a frame's declared length is checked against its
// kind's hard limit before readFrame allocates it (so one frame reserves at
// most that cap — the declared length, not the bytes that follow, sizes the
// allocation), every length inside a payload is bounds-checked against the
// remaining bytes, payloads must be consumed exactly (trailing bytes are an
// error), and malformed input always returns an error — never a panic and
// never an allocation past the caps. The fuzz targets in fuzz_test.go enforce
// this.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/protocol"
)

const (
	frameMagic = "LDPF"
	// frameVersion is the version every report frame carries; snapshot frames
	// are written at snapshotVersion and read at either.
	frameVersion    = 1
	snapshotVersion = 2

	kindReports  = 1
	kindSnapshot = 2

	// maxSnapshotMeta bounds the v2 identity strings (mechanism name and
	// digest). One byte of length each on the wire; the cap exists so the
	// layout cannot grow past it silently.
	maxSnapshotMeta = 255

	headerLen = 4 + 1 + 1 + 4

	// MaxReportsPayload bounds one report-batch frame. Larger ingest simply
	// spans several frames (the HTTP body is a frame stream), so the cap
	// costs nothing while keeping a hostile length prefix from reserving
	// gigabytes.
	MaxReportsPayload = 8 << 20
	// MaxSnapshotPayload bounds one snapshot frame; it admits accumulators
	// up to 32Mi float64 entries — far beyond any practical StateLen.
	MaxSnapshotPayload = 256 << 20
	// MaxBatchReports bounds the declared report count of one frame.
	MaxBatchReports = 1 << 17
	// MaxReportBits bounds one report's unary-encoding width.
	MaxReportBits = 1 << 21
)

// ErrFrameEOF reports a clean end of a frame stream: the reader was
// exhausted exactly at a frame boundary.
var ErrFrameEOF = errors.New("transport: end of frame stream")

func payloadLimit(kind byte) int {
	switch kind {
	case kindSnapshot:
		return MaxSnapshotPayload
	case kindQuery:
		return MaxQueryPayload
	case kindQueryResult:
		return MaxQueryResultPayload
	}
	return MaxReportsPayload
}

// writeFrame emits one complete frame at the given format version.
func writeFrame(w io.Writer, version, kind byte, payload []byte) error {
	if len(payload) > payloadLimit(kind) {
		return fmt.Errorf("transport: %d-byte payload exceeds the %d-byte frame limit", len(payload), payloadLimit(kind))
	}
	var hdr [headerLen]byte
	copy(hdr[:4], frameMagic)
	hdr[4] = version
	hdr[5] = kind
	binary.BigEndian.PutUint32(hdr[6:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// maxVersionOf returns the newest frame version readFrame accepts for a
// kind. Report frames are still version 1; snapshot frames (versions 1 and 2)
// have their own streaming reader, DecodeSnapshotFrame.
func maxVersionOf(kind byte) byte {
	switch kind {
	case kindQuery, kindQueryResult:
		return queryVersion
	}
	return frameVersion
}

// readFrame reads one frame of the wanted kind and returns its payload. A
// reader exhausted exactly at a frame boundary returns ErrFrameEOF, so
// callers can loop over a stream.
func readFrame(r io.Reader, wantKind byte) ([]byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, ErrFrameEOF
		}
		return nil, fmt.Errorf("transport: truncated frame header: %w", err)
	}
	if string(hdr[:4]) != frameMagic {
		return nil, fmt.Errorf("transport: bad frame magic %q", hdr[:4])
	}
	if hdr[4] < 1 || hdr[4] > maxVersionOf(wantKind) {
		return nil, fmt.Errorf("transport: unsupported frame version %d (this library reads versions 1..%d)", hdr[4], maxVersionOf(wantKind))
	}
	if hdr[5] != wantKind {
		return nil, fmt.Errorf("transport: frame kind %d, want %d", hdr[5], wantKind)
	}
	n := binary.BigEndian.Uint32(hdr[6:])
	if int64(n) > int64(payloadLimit(wantKind)) {
		return nil, fmt.Errorf("transport: %d-byte payload exceeds the %d-byte frame limit", n, payloadLimit(wantKind))
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: truncated frame payload: %w", err)
	}
	return payload, nil
}

const (
	flagSeed = 1 << 0
	flagBits = 1 << 1
)

// reportLen is the exact encoded size of one report — O(1), because the bit
// vector is held in wire form — which is what lets AppendReportsFrames cut
// frames without encoding anything twice.
func reportLen(r *protocol.Report) int {
	n := 1 + uvarintLen(zigzag(r.Index)) + len(r.Bits.Wire())
	if r.Seed != 0 {
		n += uvarintLen(r.Seed)
	}
	return n
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// zigzag maps a signed index to the unsigned value its uvarint carries.
func zigzag(i int) uint64 { return uint64(int64(i))<<1 ^ uint64(int64(i)>>63) }

// appendReport serializes one report. The pointer parameter and the
// index-only fast path matter: this is the per-report inner loop of the
// durable WAL's ingest-path encoder.
func appendReport(buf []byte, r *protocol.Report) []byte {
	zig := zigzag(r.Index)
	if r.Seed == 0 && !r.Bits.Present() {
		// Index-only report (strategy mechanisms): flags byte + varint.
		if zig < 0x80 {
			return append(buf, 0, byte(zig))
		}
		return binary.AppendUvarint(append(buf, 0), zig)
	}
	var flags byte
	if r.Seed != 0 {
		flags |= flagSeed
	}
	if r.Bits.Present() {
		flags |= flagBits
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, zig)
	if flags&flagSeed != 0 {
		buf = binary.AppendUvarint(buf, r.Seed)
	}
	// The vector's in-memory form is its wire field (empty when absent).
	return append(buf, r.Bits.Wire()...)
}

// AppendReportsFrame appends one complete report-batch frame to buf and
// returns the extended slice. The batch must respect the frame limits (report
// count, per-report bit width, total payload bytes) — AppendReportsFrames
// cuts a batch of any size into frames that do; on error buf is returned
// unchanged.
func AppendReportsFrame(buf []byte, reports []protocol.Report) ([]byte, error) {
	if len(reports) > MaxBatchReports {
		return buf, fmt.Errorf("transport: %d reports exceed the %d-report frame limit; split the batch", len(reports), MaxBatchReports)
	}
	start := len(buf)
	out := append(buf, frameMagic...)
	out = append(out, frameVersion, kindReports)
	out = append(out, 0, 0, 0, 0) // payload length, patched below
	payloadStart := len(out)
	out = binary.BigEndian.AppendUint32(out, uint32(len(reports)))
	for i := range reports {
		r := &reports[i]
		if r.Bits.Len() > MaxReportBits {
			return buf, fmt.Errorf("transport: report %d carries %d bits, over the %d-bit frame limit", i, r.Bits.Len(), MaxReportBits)
		}
		out = appendReport(out, r)
	}
	plen := len(out) - payloadStart
	if plen > MaxReportsPayload {
		return buf, fmt.Errorf("transport: %d-byte payload exceeds the %d-byte frame limit", plen, MaxReportsPayload)
	}
	binary.BigEndian.PutUint32(out[start+6:], uint32(plen))
	return out, nil
}

// AppendReportsFrames appends a batch as one or more frames — the one frame
// cutter the client's request body, the WAL record and EncodeReportsChunked
// share. It is greedy by exact size: a new frame starts where the next report
// would push the payload past MaxReportsPayload or the count past
// MaxBatchReports — the encoder-side mirror of the decoder's caps, so any
// batch of individually-encodable reports (≤ MaxReportBits bits each) ships,
// regardless of count or unary width. An empty batch appends one empty frame.
// Atomicity is per frame: a receiver applies each frame independently. On
// error buf is returned unchanged.
func AppendReportsFrames(buf []byte, reports []protocol.Report) ([]byte, error) {
	out := buf
	for first := true; first || len(reports) > 0; first = false {
		n, plen := 0, 4
		for n < len(reports) && n < MaxBatchReports {
			rl := reportLen(&reports[n])
			if n > 0 && plen+rl > MaxReportsPayload {
				break
			}
			n, plen = n+1, plen+rl
		}
		var err error
		if out, err = AppendReportsFrame(slices.Grow(out, headerLen+plen), reports[:n]); err != nil {
			return buf, err
		}
		reports = reports[n:]
	}
	return out, nil
}

// EncodeReportsChunked is AppendReportsFrames onto an io.Writer: the whole
// batch is framed, then written once.
func EncodeReportsChunked(w io.Writer, reports []protocol.Report) error {
	buf, err := AppendReportsFrames(nil, reports)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// decodeUvarint reads one uvarint from buf, rejecting truncation and values
// over 64 bits.
func decodeUvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, errors.New("transport: bad varint")
	}
	return v, n, nil
}

// DecodeReports reads one report-batch frame. A stream exhausted exactly at a
// frame boundary returns (nil, ErrFrameEOF). What it allocates does not depend
// on the reports' width: the payload readFrame read (the declared length,
// capped at MaxReportsPayload) and the []Report. A decoded report's bit
// vector aliases that payload — nothing is unpacked or copied — so the
// payload lives as long as any report of the frame does.
func DecodeReports(r io.Reader) ([]protocol.Report, error) {
	payload, err := readFrame(r, kindReports)
	if err != nil {
		return nil, err
	}
	if len(payload) < 4 {
		return nil, errors.New("transport: report frame shorter than its count field")
	}
	count := binary.BigEndian.Uint32(payload)
	if count > MaxBatchReports {
		return nil, fmt.Errorf("transport: declared report count %d exceeds the %d-report frame limit", count, MaxBatchReports)
	}
	// Each report occupies at least two bytes (flags + index), so a count
	// that could not fit in the payload is rejected before any allocation.
	buf := payload[4:]
	if uint64(count)*2 > uint64(len(buf)) {
		return nil, fmt.Errorf("transport: declared report count %d does not fit a %d-byte payload", count, len(buf))
	}
	reports := make([]protocol.Report, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(buf) == 0 {
			return nil, fmt.Errorf("transport: frame truncated at report %d of %d", i, count)
		}
		flags := buf[0]
		if flags&^(flagSeed|flagBits) != 0 {
			return nil, fmt.Errorf("transport: report %d has unknown flag bits %#x", i, flags)
		}
		buf = buf[1:]
		var rep protocol.Report
		uidx, n, err := decodeUvarint(buf)
		if err != nil {
			return nil, fmt.Errorf("transport: report %d index: %w", i, err)
		}
		buf = buf[n:]
		rep.Index = int(int64(uidx>>1) ^ -int64(uidx&1))
		if flags&flagSeed != 0 {
			rep.Seed, n, err = decodeUvarint(buf)
			if err != nil {
				return nil, fmt.Errorf("transport: report %d seed: %w", i, err)
			}
			buf = buf[n:]
		}
		if flags&flagBits != 0 {
			// The vector adopts its bytes in place; ParseBitVec is where the
			// count cap, the length and the zero padding are enforced.
			if rep.Bits, n, err = protocol.ParseBitVec(buf, MaxReportBits); err != nil {
				return nil, fmt.Errorf("transport: report %d bits: %w", i, err)
			}
			buf = buf[n:]
		}
		reports = append(reports, rep)
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after %d reports", len(buf), count)
	}
	return reports, nil
}

// Snapshot is one framed collector snapshot: the merged accumulator, the
// report count it reflects, the producing collector's monotonic snapshot
// epoch, and the mechanism identity it was aggregated under. Epoch and Info
// are zero when the frame was written by a version-1 producer.
type Snapshot struct {
	State []float64
	Count float64
	Epoch uint64
	Info  Info
}

// snapshotFrameError reports why a snapshot cannot be framed (identity
// strings over the one-byte length fields, a domain outside uint32, or a
// state over the payload cap) — checked before any byte is written, so a
// caller that has not committed its response yet can still fail cleanly.
func snapshotFrameError(s Snapshot) error {
	if len(s.Info.Mechanism) > maxSnapshotMeta || len(s.Info.Digest) > maxSnapshotMeta {
		return fmt.Errorf("transport: snapshot identity strings exceed %d bytes", maxSnapshotMeta)
	}
	if s.Info.Domain < 0 || int64(s.Info.Domain) > math.MaxUint32 {
		return fmt.Errorf("transport: snapshot domain %d does not fit the frame", s.Info.Domain)
	}
	meta := 8 + 8 + 4 + 8 + 1 + len(s.Info.Mechanism) + 1 + len(s.Info.Digest) + 4
	if meta+8*len(s.State) > MaxSnapshotPayload {
		return fmt.Errorf("transport: %d-entry state exceeds the snapshot frame limit", len(s.State))
	}
	return nil
}

// snapshotChunkFloats is how many state entries the snapshot codec moves per
// write/read — 32 KiB of wire bytes, small enough to live on one buffer
// regardless of accumulator size.
const snapshotChunkFloats = 4096

// EncodeSnapshotFrame writes one version-2 snapshot frame carrying the full
// snapshot: identity and epoch first, state last, so a reader can reject a
// mismatched shard from the fixed-size prefix alone. The frame streams
// through one chunk-sized buffer (sized down to the frame for small
// snapshots), so a checkpoint of any accumulator size never materializes its
// payload and a small HTTP snapshot costs one allocation and one write.
func EncodeSnapshotFrame(w io.Writer, s Snapshot) error {
	total, err := SnapshotFrameLen(s)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, min(total, 8*snapshotChunkFloats))
	buf = append(buf, frameMagic...)
	buf = append(buf, snapshotVersion, kindSnapshot)
	buf = binary.BigEndian.AppendUint32(buf, uint32(total-headerLen))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Count))
	buf = binary.BigEndian.AppendUint64(buf, s.Epoch)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Info.Domain))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(s.Info.Epsilon))
	buf = append(buf, byte(len(s.Info.Mechanism)))
	buf = append(buf, s.Info.Mechanism...)
	buf = append(buf, byte(len(s.Info.Digest)))
	buf = append(buf, s.Info.Digest...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.State)))
	for _, v := range s.State {
		if len(buf)+8 > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
	}
	_, err = w.Write(buf)
	return err
}

// SnapshotFrameLen returns the exact byte length EncodeSnapshotFrame produces
// for s, header included — what a streaming checkpoint writer needs to frame
// its payload before a single state entry moves.
func SnapshotFrameLen(s Snapshot) (int, error) {
	if err := snapshotFrameError(s); err != nil {
		return 0, err
	}
	meta := 8 + 8 + 4 + 8 + 1 + len(s.Info.Mechanism) + 1 + len(s.Info.Digest) + 4
	return headerLen + meta + 8*len(s.State), nil
}

// DecodeSnapshotHead reads the fixed-size head of one snapshot frame of
// either version from r — the frame header, the count and, in a version-2
// frame, the epoch — and nothing after it. The Snapshot it returns holds only
// that Count (unvalidated) and Epoch: a reader that needs only a frame's
// epoch stops here, and DecodeSnapshotFrame goes on from the same head.
func DecodeSnapshotHead(r io.Reader) (Snapshot, error) {
	s, _, _, err := decodeSnapshotHead(r)
	return s, err
}

// decodeSnapshotHead is DecodeSnapshotHead that also returns the frame
// version and a reader limited to the rest of the payload.
func decodeSnapshotHead(r io.Reader) (Snapshot, byte, *io.LimitedReader, error) {
	var buf [headerLen + 16]byte
	hdr := buf[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return Snapshot{}, 0, nil, errors.New("transport: empty snapshot response")
		}
		return Snapshot{}, 0, nil, fmt.Errorf("transport: truncated frame header: %w", err)
	}
	if string(hdr[:4]) != frameMagic {
		return Snapshot{}, 0, nil, fmt.Errorf("transport: bad frame magic %q", hdr[:4])
	}
	version := hdr[4]
	if version < 1 || version > snapshotVersion {
		return Snapshot{}, 0, nil, fmt.Errorf("transport: unsupported frame version %d (this library reads versions 1..%d)", version, snapshotVersion)
	}
	if hdr[5] != kindSnapshot {
		return Snapshot{}, 0, nil, fmt.Errorf("transport: frame kind %d, want %d", hdr[5], kindSnapshot)
	}
	plen := binary.BigEndian.Uint32(hdr[6:])
	if int64(plen) > int64(MaxSnapshotPayload) {
		return Snapshot{}, 0, nil, fmt.Errorf("transport: %d-byte payload exceeds the %d-byte frame limit", plen, MaxSnapshotPayload)
	}
	lr := &io.LimitedReader{R: r, N: int64(plen)}
	head := buf[headerLen:] // count, then the epoch version 1 lacks
	if version < snapshotVersion {
		head = head[:8]
	}
	if n, err := io.ReadFull(lr, head); err != nil {
		if n < 8 {
			return Snapshot{}, 0, nil, truncatedAt("count")
		}
		return Snapshot{}, 0, nil, truncatedAt("epoch")
	}
	s := Snapshot{Count: math.Float64frombits(binary.BigEndian.Uint64(head))}
	if version >= snapshotVersion {
		s.Epoch = binary.BigEndian.Uint64(head[8:])
	}
	return s, version, lr, nil
}

// truncatedAt names the field a snapshot frame's payload ended inside.
func truncatedAt(what string) error {
	return fmt.Errorf("transport: snapshot frame truncated at its %s", what)
}

// DecodeSnapshotFrame reads one snapshot frame of either version directly
// from r, converting the state chunk by chunk — it never holds a second
// whole-state byte buffer. Version-1 frames decode with zero Epoch and Info —
// the state and count are all they carry.
func DecodeSnapshotFrame(r io.Reader) (Snapshot, error) {
	s, version, lr, err := decodeSnapshotHead(r)
	if err != nil {
		return Snapshot{}, err
	}
	scratch := make([]byte, min(int(lr.N), 8*snapshotChunkFloats))
	take := func(n int, what string) ([]byte, error) {
		// n <= lr.N also keeps n within scratch: the identity fields are at
		// most 255 bytes and scratch is the smaller of a chunk and the payload.
		if int64(n) > lr.N {
			return nil, truncatedAt(what)
		}
		if _, err := io.ReadFull(lr, scratch[:n]); err != nil {
			return nil, truncatedAt(what)
		}
		return scratch[:n], nil
	}
	var b []byte
	if version >= snapshotVersion {
		if b, err = take(4, "domain"); err != nil {
			return Snapshot{}, err
		}
		s.Info.Domain = int(binary.BigEndian.Uint32(b))
		if b, err = take(8, "epsilon"); err != nil {
			return Snapshot{}, err
		}
		s.Info.Epsilon = math.Float64frombits(binary.BigEndian.Uint64(b))
		if math.IsNaN(s.Info.Epsilon) || math.IsInf(s.Info.Epsilon, 0) || s.Info.Epsilon < 0 {
			return Snapshot{}, fmt.Errorf("transport: snapshot ε %v is not a non-negative finite number", s.Info.Epsilon)
		}
		for _, field := range []struct {
			what string
			dst  *string
		}{{"mechanism", &s.Info.Mechanism}, {"digest", &s.Info.Digest}} {
			if b, err = take(1, field.what+" length"); err != nil {
				return Snapshot{}, err
			}
			if b, err = take(int(b[0]), field.what); err != nil {
				return Snapshot{}, err
			}
			*field.dst = string(b)
		}
	}
	if b, err = take(4, "state length"); err != nil {
		return Snapshot{}, err
	}
	stateLen := binary.BigEndian.Uint32(b)
	if lr.N != 8*int64(stateLen) {
		return Snapshot{}, fmt.Errorf("transport: snapshot declares %d state entries but carries %d payload bytes", stateLen, lr.N)
	}
	if math.IsNaN(s.Count) || math.IsInf(s.Count, 0) || s.Count < 0 {
		return Snapshot{}, fmt.Errorf("transport: snapshot count %v is not a non-negative finite number", s.Count)
	}
	s.State = make([]float64, stateLen)
	for off := 0; off < len(s.State); off += snapshotChunkFloats {
		end := min(off+snapshotChunkFloats, len(s.State))
		chunk := scratch[:8*(end-off)]
		if _, err := io.ReadFull(lr, chunk); err != nil {
			return Snapshot{}, fmt.Errorf("transport: snapshot frame truncated in its state: %w", err)
		}
		for i := off; i < end; i++ {
			v := math.Float64frombits(binary.BigEndian.Uint64(chunk[8*(i-off):]))
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return Snapshot{}, fmt.Errorf("transport: snapshot state entry %d is %v, not a non-negative finite number", i, v)
			}
			s.State[i] = v
		}
	}
	return s, nil
}
