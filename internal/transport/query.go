package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Query frames carry the query engine's request/response pair over the same
// "LDPF" framing as reports and snapshots.
//
// A version-1 query request payload (kind 3) is
//
//	nameLen   uint8, then nameLen bytes   (workload family, e.g. "Prefix")
//	digestLen uint8, then digestLen bytes (expected canonical workload
//	                                       digest; empty skips the check)
//	domain    uint32  big-endian          (0 = the server's own domain)
//	level     float64 big-endian IEEE-754 (CI level in (0,1); 0 = no CIs)
//	flags     uint8                       bit0 = want variance, bit1 = want CI
//
// A version-1 query result payload (kind 4) chunks the answer rows across as
// many frames as they need, each self-describing:
//
//	count     float64 big-endian (snapshot report count)
//	epoch     uint64  big-endian (snapshot epoch)
//	flags     uint8             bit0 = rows carry variance, bit1 = rows carry CI
//	totalRows uint32  big-endian (rows in the whole result)
//	rowStart  uint32  big-endian (index of this frame's first row)
//	rowCount  uint32  big-endian
//	rows      rowCount × (answer f64 [, variance f64 [, lo f64, hi f64]])
//
// so a reader folds rows in order without ever holding more than one frame,
// and a truncated stream is detected by totalRows never being reached.
const (
	kindQuery       = 3
	kindQueryResult = 4

	queryVersion = 1

	// MaxQueryPayload bounds one request frame: two short strings and a few
	// scalars.
	MaxQueryPayload = 1 << 12
	// MaxQueryResultPayload bounds one result frame; larger results span
	// frames (the response body is a frame stream).
	MaxQueryResultPayload = 1 << 20
	// MaxQueryDomain caps the domain a request may name, mirroring the wire
	// layer's dimension cap.
	MaxQueryDomain = 1 << 20
	// MaxQueryRows caps a result's declared total row count.
	MaxQueryRows = 1 << 31 // fits uint32 and int on 64-bit

	queryFlagVariance = 1 << 0
	queryFlagCI       = 1 << 1
)

// QueryRequest asks a serving shard (or a router fronting a fleet) to answer
// one workload over its current snapshot.
type QueryRequest struct {
	// Workload names the family (resolved server-side by name and domain).
	Workload string
	// Domain is the expected domain size; 0 accepts the server's own.
	Domain int
	// Digest, when set, is the canonical workload digest the client expects;
	// the server rejects the query if its resolved workload digests
	// differently — the same guard the snapshot path applies to mechanisms.
	Digest string
	// Level is the two-sided confidence level for CIs; required in (0,1)
	// when WantCI is set, 0 otherwise.
	Level float64
	// WantVariance asks for per-query closed-form variances.
	WantVariance bool
	// WantCI asks for confidence intervals at Level (implies variance
	// computation server-side).
	WantCI bool
}

// QueryRow is one streamed result row.
type QueryRow struct {
	Index     int
	Answer    float64
	Variance  float64 // present when the result declares variance
	Low, High float64 // present when the result declares CIs
}

// QueryResultInfo is the result stream's fixed header: the snapshot the
// answers were reconstructed from and what each row carries.
type QueryResultInfo struct {
	Count       float64
	Epoch       uint64
	TotalRows   int
	HasVariance bool
	HasCI       bool
}

// EncodeQueryFrame writes one query request frame.
func EncodeQueryFrame(w io.Writer, q QueryRequest) error {
	if len(q.Workload) == 0 || len(q.Workload) > 255 {
		return fmt.Errorf("transport: query workload name length %d outside 1..255", len(q.Workload))
	}
	if len(q.Digest) > 255 {
		return fmt.Errorf("transport: query digest length %d over 255", len(q.Digest))
	}
	if q.Domain < 0 || q.Domain > MaxQueryDomain {
		return fmt.Errorf("transport: query domain %d outside 0..%d", q.Domain, MaxQueryDomain)
	}
	if err := checkQueryLevel(q.Level, q.WantCI); err != nil {
		return err
	}
	var flags byte
	if q.WantVariance {
		flags |= queryFlagVariance
	}
	if q.WantCI {
		flags |= queryFlagCI
	}
	buf := make([]byte, 0, 2+len(q.Workload)+len(q.Digest)+4+8+1)
	buf = append(buf, byte(len(q.Workload)))
	buf = append(buf, q.Workload...)
	buf = append(buf, byte(len(q.Digest)))
	buf = append(buf, q.Digest...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(q.Domain))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(q.Level))
	buf = append(buf, flags)
	return writeFrame(w, queryVersion, kindQuery, buf)
}

// checkQueryLevel validates the CI level against the CI flag: a CI request
// needs a level strictly inside (0,1); without CIs the level must be 0.
func checkQueryLevel(level float64, wantCI bool) error {
	if wantCI {
		if math.IsNaN(level) || level <= 0 || level >= 1 {
			return fmt.Errorf("transport: query CI level %v outside (0, 1)", level)
		}
		return nil
	}
	if level != 0 {
		return fmt.Errorf("transport: query level %v set without requesting CIs", level)
	}
	return nil
}

// DecodeQueryFrame reads one query request frame, strictly bounds-checked:
// every length is validated against the remaining payload, the payload must
// be consumed exactly, and the decoded fields must satisfy the same
// invariants the encoder enforces.
func DecodeQueryFrame(r io.Reader) (QueryRequest, error) {
	payload, err := readFrame(r, kindQuery)
	if err != nil {
		return QueryRequest{}, err
	}
	var q QueryRequest
	buf := payload
	take := func(n int, what string) ([]byte, error) {
		if len(buf) < n {
			return nil, fmt.Errorf("transport: query frame truncated at its %s", what)
		}
		out := buf[:n]
		buf = buf[n:]
		return out, nil
	}
	for _, field := range []struct {
		what string
		dst  *string
	}{{"workload name", &q.Workload}, {"digest", &q.Digest}} {
		b, err := take(1, field.what+" length")
		if err != nil {
			return QueryRequest{}, err
		}
		if b, err = take(int(b[0]), field.what); err != nil {
			return QueryRequest{}, err
		}
		*field.dst = string(b)
	}
	if q.Workload == "" {
		return QueryRequest{}, errors.New("transport: query names no workload")
	}
	b, err := take(4, "domain")
	if err != nil {
		return QueryRequest{}, err
	}
	q.Domain = int(binary.BigEndian.Uint32(b))
	if q.Domain > MaxQueryDomain {
		return QueryRequest{}, fmt.Errorf("transport: query domain %d over the %d limit", q.Domain, MaxQueryDomain)
	}
	if b, err = take(8, "level"); err != nil {
		return QueryRequest{}, err
	}
	q.Level = math.Float64frombits(binary.BigEndian.Uint64(b))
	if b, err = take(1, "flags"); err != nil {
		return QueryRequest{}, err
	}
	flags := b[0]
	if flags&^(queryFlagVariance|queryFlagCI) != 0 {
		return QueryRequest{}, fmt.Errorf("transport: query has unknown flag bits %#x", flags)
	}
	q.WantVariance = flags&queryFlagVariance != 0
	q.WantCI = flags&queryFlagCI != 0
	if err := checkQueryLevel(q.Level, q.WantCI); err != nil {
		return QueryRequest{}, err
	}
	if len(buf) != 0 {
		return QueryRequest{}, fmt.Errorf("transport: %d trailing bytes after query frame", len(buf))
	}
	return q, nil
}

// queryRowWidth returns the encoded byte width of one row under the result
// flags.
func queryRowWidth(hasVar, hasCI bool) int {
	w := 8
	if hasVar {
		w += 8
	}
	if hasCI {
		w += 16
	}
	return w
}

// QueryResultWriter streams a query result as chunked frames: rows are
// buffered and shipped whenever the next row would overflow one frame's
// payload, so the writer never holds more than MaxQueryResultPayload bytes
// regardless of result size. Close flushes the final (possibly empty) frame;
// a zero-row result still emits one frame so the reader sees the header.
type QueryResultWriter struct {
	w        io.Writer
	info     QueryResultInfo
	buf      []byte
	metaLen  int
	rowStart int // result index of the first buffered row
	rows     int // buffered row count
	written  int // rows shipped in earlier frames
	flushed  bool
}

// NewQueryResultWriter prepares a streaming result with the given header.
func NewQueryResultWriter(w io.Writer, info QueryResultInfo) (*QueryResultWriter, error) {
	if info.TotalRows < 0 || int64(info.TotalRows) > MaxQueryRows {
		return nil, fmt.Errorf("transport: query result declares %d rows, limit %d", info.TotalRows, int64(MaxQueryRows))
	}
	qw := &QueryResultWriter{w: w, info: info}
	// One buffer sized for the first frame (64 bytes cover its header): the
	// whole result when it fits. Growing it by append from a small buffer
	// allocated about twice that on every query.
	size := min(64+info.TotalRows*queryRowWidth(info.HasVariance, info.HasCI), MaxQueryResultPayload)
	qw.buf = qw.appendMeta(make([]byte, 0, size), 0)
	qw.metaLen = len(qw.buf)
	return qw, nil
}

// appendMeta appends the per-frame header for a frame starting at rowStart.
func (qw *QueryResultWriter) appendMeta(buf []byte, rowStart int) []byte {
	var flags byte
	if qw.info.HasVariance {
		flags |= queryFlagVariance
	}
	if qw.info.HasCI {
		flags |= queryFlagCI
	}
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(qw.info.Count))
	buf = binary.BigEndian.AppendUint64(buf, qw.info.Epoch)
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(qw.info.TotalRows))
	buf = binary.BigEndian.AppendUint32(buf, uint32(rowStart))
	buf = append(buf, 0, 0, 0, 0) // rowCount, patched at flush
	return buf
}

// WriteRow appends the next row (rows must arrive in result order).
func (qw *QueryResultWriter) WriteRow(row QueryRow) error {
	if qw.written+qw.rows >= qw.info.TotalRows {
		return fmt.Errorf("transport: query result overflows its declared %d rows", qw.info.TotalRows)
	}
	width := queryRowWidth(qw.info.HasVariance, qw.info.HasCI)
	if len(qw.buf)+width > MaxQueryResultPayload {
		if err := qw.flush(); err != nil {
			return err
		}
	}
	qw.buf = binary.BigEndian.AppendUint64(qw.buf, math.Float64bits(row.Answer))
	if qw.info.HasVariance {
		qw.buf = binary.BigEndian.AppendUint64(qw.buf, math.Float64bits(row.Variance))
	}
	if qw.info.HasCI {
		qw.buf = binary.BigEndian.AppendUint64(qw.buf, math.Float64bits(row.Low))
		qw.buf = binary.BigEndian.AppendUint64(qw.buf, math.Float64bits(row.High))
	}
	qw.rows++
	return nil
}

// flush ships the buffered frame and resets the buffer for the next chunk.
func (qw *QueryResultWriter) flush() error {
	binary.BigEndian.PutUint32(qw.buf[qw.metaLen-4:], uint32(qw.rows))
	if err := writeFrame(qw.w, queryVersion, kindQueryResult, qw.buf); err != nil {
		return err
	}
	qw.written += qw.rows
	qw.rowStart = qw.written
	qw.rows = 0
	qw.buf = qw.appendMeta(qw.buf[:0], qw.rowStart)
	qw.flushed = true
	return nil
}

// Close flushes the final frame and verifies the declared row count was
// delivered in full — a short result is a bug surfaced here, not silence.
func (qw *QueryResultWriter) Close() error {
	if qw.written+qw.rows != qw.info.TotalRows {
		return fmt.Errorf("transport: query result wrote %d of %d declared rows", qw.written+qw.rows, qw.info.TotalRows)
	}
	if qw.rows > 0 || !qw.flushed {
		return qw.flush()
	}
	return nil
}

// DecodeQueryResult reads a chunked query result stream, calling fn for each
// row in order until the stream completes, fn returns false, or an error.
// The returned info is the header of the first frame; every later frame must
// agree with it. A stream ending before totalRows rows is an error.
func DecodeQueryResult(r io.Reader, fn func(QueryRow) bool) (QueryResultInfo, error) {
	var info QueryResultInfo
	first := true
	seen := 0
	for {
		if !first && seen >= info.TotalRows {
			return info, nil
		}
		payload, err := readFrame(r, kindQueryResult)
		if err != nil {
			if err == ErrFrameEOF {
				if first {
					return info, errors.New("transport: empty query response")
				}
				return info, fmt.Errorf("transport: query result truncated after %d of %d rows", seen, info.TotalRows)
			}
			return info, err
		}
		frameInfo, rowStart, rows, err := decodeQueryResultFrame(payload, fn)
		if err != nil {
			return info, err
		}
		if first {
			info = frameInfo
			first = false
		} else if frameInfo != info {
			return info, errors.New("transport: query result frames disagree on their header")
		}
		if rowStart != seen {
			return info, fmt.Errorf("transport: query result frame starts at row %d, want %d", rowStart, seen)
		}
		seen += rows
		if seen > info.TotalRows {
			return info, fmt.Errorf("transport: query result carries %d rows, declared %d", seen, info.TotalRows)
		}
		if rows < 0 {
			// fn stopped the stream early; drain no further.
			return info, nil
		}
	}
}

// decodeQueryResultFrame decodes one result frame's payload, invoking fn per
// row. It returns rows = -1 when fn stopped the stream.
func decodeQueryResultFrame(payload []byte, fn func(QueryRow) bool) (QueryResultInfo, int, int, error) {
	var info QueryResultInfo
	buf := payload
	take := func(n int, what string) ([]byte, error) {
		if len(buf) < n {
			return nil, fmt.Errorf("transport: query result frame truncated at its %s", what)
		}
		out := buf[:n]
		buf = buf[n:]
		return out, nil
	}
	b, err := take(8, "count")
	if err != nil {
		return info, 0, 0, err
	}
	info.Count = math.Float64frombits(binary.BigEndian.Uint64(b))
	if math.IsNaN(info.Count) || math.IsInf(info.Count, 0) || info.Count < 0 {
		return info, 0, 0, fmt.Errorf("transport: query result count %v is not a non-negative finite number", info.Count)
	}
	if b, err = take(8, "epoch"); err != nil {
		return info, 0, 0, err
	}
	info.Epoch = binary.BigEndian.Uint64(b)
	if b, err = take(1, "flags"); err != nil {
		return info, 0, 0, err
	}
	flags := b[0]
	if flags&^(queryFlagVariance|queryFlagCI) != 0 {
		return info, 0, 0, fmt.Errorf("transport: query result has unknown flag bits %#x", flags)
	}
	info.HasVariance = flags&queryFlagVariance != 0
	info.HasCI = flags&queryFlagCI != 0
	if b, err = take(4, "total row count"); err != nil {
		return info, 0, 0, err
	}
	info.TotalRows = int(binary.BigEndian.Uint32(b))
	if b, err = take(4, "row start"); err != nil {
		return info, 0, 0, err
	}
	rowStart := int(binary.BigEndian.Uint32(b))
	if b, err = take(4, "row count"); err != nil {
		return info, 0, 0, err
	}
	rows := int(binary.BigEndian.Uint32(b))
	width := queryRowWidth(info.HasVariance, info.HasCI)
	if int64(rows)*int64(width) != int64(len(buf)) {
		return info, 0, 0, fmt.Errorf("transport: query result frame declares %d rows but carries %d payload bytes", rows, len(buf))
	}
	if rowStart+rows > info.TotalRows {
		return info, 0, 0, fmt.Errorf("transport: query result frame rows %d..%d exceed the declared total %d", rowStart, rowStart+rows, info.TotalRows)
	}
	for i := 0; i < rows; i++ {
		row := QueryRow{Index: rowStart + i}
		row.Answer = math.Float64frombits(binary.BigEndian.Uint64(buf))
		buf = buf[8:]
		if info.HasVariance {
			row.Variance = math.Float64frombits(binary.BigEndian.Uint64(buf))
			buf = buf[8:]
		}
		if info.HasCI {
			row.Low = math.Float64frombits(binary.BigEndian.Uint64(buf))
			buf = buf[8:]
			row.High = math.Float64frombits(binary.BigEndian.Uint64(buf))
			buf = buf[8:]
		}
		if !fn(row) {
			return info, rowStart, -1, nil
		}
	}
	return info, rowStart, rows, nil
}
