// Package durable gives a collector shard crash-safe ingest: every absorbed
// report batch is appended to a length-prefixed, CRC-checked write-ahead log
// before it is acknowledged, and the merged accumulator is periodically
// serialized into checkpoint files, so recovery is load-latest-valid-
// checkpoint + replay-WAL-tail. The report payloads reuse internal/transport's
// hardened frame encoding verbatim; the record header adds what replay needs
// on top of it: the WAL generation (epoch), the report count, the transport's
// idempotency key (so a client retry after a restart still absorbs exactly
// once), and the mechanism digest (so a log written under one strategy matrix
// can never be replayed into another).
//
// The package owns every file of a shard's data directory and the router's
// binding log. Checkpoints double as the bounded epoch history: the
// retention ladder decides which a directory keeps (ladder.go), the manifest
// indexes the retained epochs so any of them is served without replay
// (manifest.go), and checkpoints are read and written streaming
// (checkpoint.go). All file kinds share one envelope writer and header check
// and one atomic replace (file.go); the two append-only logs share one tail
// policy (truncateTornTail).
//
// # WAL record format
//
// Every record is one envelope (file.go), magic "LDPW", version 1, whose
// payload is
//
//	epoch     uint64 big-endian   WAL generation (= the segment's sequence)
//	keyLen    uint8, then keyLen bytes       idempotency key (may be empty)
//	digestLen uint8, then digestLen bytes    mechanism digest (may be empty)
//	count     uint32 big-endian   total reports in the record
//	frames    one or more complete transport report-batch frames
//
// A record is atomic: the CRC covers the whole payload, so a record either
// replays in full or — when the file ends mid-record, the crash case — is
// detected as torn and dropped. Only the end of the final segment may be
// torn, and only when nothing decodable follows the damage (sequential
// appends tear exclusively at the physical end, so an intact record past a
// damaged one proves corruption); every other defect refuses recovery
// rather than guessing.
//
// Decoders are strict in the same way the transport's are: every declared
// length is bounds-checked before allocation, payloads must be consumed
// exactly, and malformed input returns an error — never a panic. The fuzz
// target FuzzDecodeWALRecord enforces this.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

const (
	recordMagic   = "LDPW"
	recordVersion = 1

	// MaxRecordPayload bounds one WAL record. A record carries one ingested
	// batch (chunked into transport frames), so the cap only limits the size
	// of a single IngestBatch call against a durable collector — split larger
	// batches. It exists so a corrupt length prefix cannot reserve gigabytes
	// during replay.
	MaxRecordPayload = 64 << 20

	// maxRecordMeta bounds the key and digest strings (one byte of length
	// each on the wire).
	maxRecordMeta = 255
)

// Record is one WAL entry: the batch of reports that was absorbed atomically,
// the idempotency key it was ingested under (empty for unkeyed ingest), the
// mechanism digest of the aggregator that absorbed it, and the WAL generation
// it was appended in.
type Record struct {
	Epoch   uint64
	Key     string
	Digest  string
	Reports []protocol.Report
}

// Sentinel errors the decoder distinguishes so recovery can tell "the file
// ends mid-record" (the crash signature — drop the tail) from "the bytes are
// wrong" (corruption — refused everywhere but the tail of the final segment).
var (
	// ErrTornRecord reports a record cut short by the end of its reader: the
	// header or payload is incomplete. This is what a crash mid-append leaves
	// behind.
	ErrTornRecord = errors.New("durable: torn WAL record")
	// errInvalidRecord reports bytes that are present but not a record (bad
	// magic, version, cap, or CRC) — indistinguishable from a torn tail that
	// garbage followed, so the tail policy treats both alike.
	errInvalidRecord = errors.New("durable: invalid WAL record")
	// errCorruptRecord reports a CRC-valid payload that does not parse: the
	// writer wrote it exactly so, which means a bug or targeted tampering —
	// never silently dropped.
	errCorruptRecord = errors.New("durable: corrupt WAL record payload")
)

// EncodeRecord serializes one record (Epoch, Key, Digest, Reports; the wire
// count field is derived from len(Reports)).
func EncodeRecord(rec Record) ([]byte, error) {
	return AppendRecord(nil, rec)
}

// AppendRecord appends rec's encoding to buf and returns the extended slice —
// the allocation-free path Store.Append pools on the hot ingest path. The
// reports are framed by the transport's one cutter, AppendReportsFrames: one
// frame for a batch within the frame limits, several for a larger one, always
// in place. On error buf is returned unchanged.
func AppendRecord(buf []byte, rec Record) ([]byte, error) {
	if len(rec.Key) > maxRecordMeta || len(rec.Digest) > maxRecordMeta {
		return buf, fmt.Errorf("durable: record key/digest strings exceed %d bytes", maxRecordMeta)
	}
	// One reservation for the worst case, so the appends below never regrow
	// (under -race sync.Pool drops buffers, and every regrow is an allocation
	// the ingest path's zero-alloc pin counts): per report, flags + two
	// maximal varints + the bit vector's wire field.
	worst := envelopeHeaderLen + 8 + 1 + len(rec.Key) + 1 + len(rec.Digest) + 4 + 14
	for i := range rec.Reports {
		worst += 1 + 2*binary.MaxVarintLen64 + len(rec.Reports[i].Bits.Wire())
	}
	if cap(buf)-len(buf) < worst {
		grown := make([]byte, len(buf), len(buf)+worst)
		copy(grown, buf)
		buf = grown
	}
	start := len(buf)
	out := beginEnvelope(buf, recordMagic, recordVersion)
	out = binary.BigEndian.AppendUint64(out, rec.Epoch)
	out = append(out, byte(len(rec.Key)))
	out = append(out, rec.Key...)
	out = append(out, byte(len(rec.Digest)))
	out = append(out, rec.Digest...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(rec.Reports)))
	out, err := transport.AppendReportsFrames(out, rec.Reports)
	if err != nil {
		return buf, fmt.Errorf("durable: encode record reports: %w", err)
	}
	payload := out[start+envelopeHeaderLen:]
	if len(payload) > MaxRecordPayload {
		return buf, fmt.Errorf("durable: %d-byte record exceeds the %d-byte WAL record limit; split the batch", len(payload), MaxRecordPayload)
	}
	sealEnvelope(out[start:], crc32.ChecksumIEEE(payload), len(payload))
	return out, nil
}

// readEnvelope reads one record of the WAL family — the "LDPW" envelope at
// the wanted version — and returns its CRC-validated payload. It is the one
// place the envelope's failure modes are told apart: a reader exhausted
// exactly at a record boundary returns io.EOF; one exhausted mid-record
// returns ErrTornRecord; bytes that are present but not such a record (magic,
// version, a length over maxPayload, CRC) return errInvalidRecord.
func readEnvelope(r io.Reader, version byte, maxPayload uint32) ([]byte, error) {
	var hdr [envelopeHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated header", ErrTornRecord)
		}
		// A real read failure (EIO and friends) is not evidence of a torn
		// record — surface it untranslated so recovery aborts instead of
		// truncating data that may be perfectly intact.
		return nil, fmt.Errorf("durable: read record header: %w", err)
	}
	_, wantCRC, plen, err := checkHeader(hdr[:], recordMagic, maxPayload, version)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errInvalidRecord, err)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated payload", ErrTornRecord)
		}
		return nil, fmt.Errorf("durable: read record payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("%w: CRC mismatch", errInvalidRecord)
	}
	return payload, nil
}

// truncateTornTail is the one tail policy of the append-only logs (WAL
// segments, the binding log), applied when decoding f failed with decodeErr
// after the last intact record ended at offset good. Only a crash tear is
// dropped — f truncated to good, the dropped byte count returned — and a
// crash tears only the end of a file that may still have been appended to
// (mayTear), and only with nothing intact after the damage: sequential
// appends tear at the physical end, so an intact record past the damage
// proves corruption (bit rot, out-of-order writeback). A CRC-valid payload
// that does not parse (errCorruptRecord) was written exactly so and is
// refused too; any other error is a read failure, not evidence about the
// bytes, and returns without touching the file. intactAt reports whether a
// complete record of the file's kind starts at b[0].
func truncateTornTail(f *os.File, mayTear bool, good int64, decodeErr error, intactAt func(b []byte) bool) (int64, error) {
	name := filepath.Base(f.Name())
	if errors.Is(decodeErr, errCorruptRecord) {
		return 0, fmt.Errorf("durable: %s corrupt at offset %d: %w", name, good, decodeErr)
	}
	if !errors.Is(decodeErr, ErrTornRecord) && !errors.Is(decodeErr, errInvalidRecord) {
		return 0, fmt.Errorf("durable: read %s: %w", name, decodeErr)
	}
	if !mayTear {
		return 0, fmt.Errorf("durable: %s damaged at offset %d (only the raw final segment may end torn): %w", name, good, decodeErr)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	// Only runs on the error path; cost is proportional to the damaged tail.
	if from := good + 1; from < st.Size() {
		tail := make([]byte, st.Size()-from)
		if _, err := f.ReadAt(tail, from); err == nil { // an unreadable tail proves nothing: torn
			for i := 0; i+envelopeHeaderLen <= len(tail); i++ {
				if string(tail[i:i+4]) == recordMagic && intactAt(tail[i:]) {
					return 0, fmt.Errorf("durable: %s damaged at offset %d but an intact record follows at offset %d — corruption, not a crash tear; refusing to truncate", name, good, from+int64(i))
				}
			}
		}
	}
	if err := os.Truncate(f.Name(), good); err != nil {
		return 0, fmt.Errorf("durable: truncate torn tail of %s: %w", name, err)
	}
	return st.Size() - good, nil
}

// countingReader counts the bytes read through it: the offset of the last
// intact record the tail policy truncates to.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// DecodeRecord reads one record. A reader exhausted exactly at a record
// boundary returns io.EOF; one exhausted mid-record returns ErrTornRecord.
// Malformed bytes return an error that is never a panic and never an
// attacker-sized allocation.
func DecodeRecord(r io.Reader) (Record, error) {
	payload, err := readEnvelope(r, recordVersion, MaxRecordPayload)
	if err != nil {
		return Record{}, err
	}
	return decodePayload(payload)
}

// decodePayload parses a CRC-validated record payload. Failures here are
// errCorruptRecord: the checksum proves these are the bytes the writer chose.
func decodePayload(payload []byte) (Record, error) {
	var rec Record
	buf := payload
	take := func(n int, what string) ([]byte, error) {
		if len(buf) < n {
			return nil, fmt.Errorf("%w: truncated at its %s", errCorruptRecord, what)
		}
		out := buf[:n]
		buf = buf[n:]
		return out, nil
	}
	b, err := take(8, "epoch")
	if err != nil {
		return Record{}, err
	}
	rec.Epoch = binary.BigEndian.Uint64(b)
	for _, field := range []struct {
		what string
		dst  *string
	}{{"key", &rec.Key}, {"digest", &rec.Digest}} {
		if b, err = take(1, field.what+" length"); err != nil {
			return Record{}, err
		}
		if b, err = take(int(b[0]), field.what); err != nil {
			return Record{}, err
		}
		*field.dst = string(b)
	}
	if b, err = take(4, "report count"); err != nil {
		return Record{}, err
	}
	count := binary.BigEndian.Uint32(b)
	fr := bytes.NewReader(buf)
	var total uint64
	for {
		reports, err := transport.DecodeReports(fr)
		if err == transport.ErrFrameEOF {
			break
		}
		if err != nil {
			return Record{}, fmt.Errorf("%w: %v", errCorruptRecord, err)
		}
		total += uint64(len(reports))
		if total > uint64(count) {
			return Record{}, fmt.Errorf("%w: frames carry more than the declared %d reports", errCorruptRecord, count)
		}
		rec.Reports = append(rec.Reports, reports...)
	}
	if total != uint64(count) {
		return Record{}, fmt.Errorf("%w: declared %d reports, frames carry %d", errCorruptRecord, count, total)
	}
	return rec, nil
}

// walFile is one append-only WAL segment with group commit: concurrent
// appenders stage encoded records into a shared pending buffer; one of them
// becomes the flusher and writes (and, in fsync mode, syncs) everything staged
// so far in a single syscall pair, while later arrivals stage behind it and
// ride the next flush. An Append only returns once its bytes are in the file
// (and synced, in fsync mode) — that write is the acknowledgment the
// collector's absorb waits for.
type walFile struct {
	fsync bool

	// metrics, when armed, observes each flush's syscall time and group size.
	metrics atomic.Pointer[storeMetrics]

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	pend     []byte
	spare    []byte // last flushed buffer, recycled into pend
	appended int64  // logical size: file + pending
	flushed  int64  // bytes durably in the file
	flushing bool
	err      error // sticky: a failed write poisons the segment
}

// openWALFile opens (creating if needed) a segment for appending. The caller
// has already truncated any torn tail, so the file ends at a record boundary.
func openWALFile(path string, fsync bool) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &walFile{fsync: fsync, f: f, appended: st.Size(), flushed: st.Size()}
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// append stages rec and returns once it is written (group commit: whoever
// finds no flush in progress writes the whole pending buffer; everyone else
// waits for the flush covering their bytes).
func (w *walFile) append(rec []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.pend == nil && w.spare != nil {
		w.pend, w.spare = w.spare, nil
	}
	w.pend = append(w.pend, rec...)
	w.appended += int64(len(rec))
	w.waitFlushedLocked(w.appended)
	return w.err
}

// waitFlushedLocked blocks until the file durably holds target bytes (or the
// segment is poisoned), becoming the flusher whenever none is active — the
// one group-commit wait protocol append, sync, and close all share. Caller
// holds w.mu.
func (w *walFile) waitFlushedLocked(target int64) {
	for w.flushed < target && w.err == nil {
		if w.flushing {
			w.cond.Wait()
			continue
		}
		w.flushLocked()
	}
}

// flushLocked writes (and, in fsync mode, syncs) the whole pending buffer.
// The lock is released for the syscalls so concurrent appenders can stage the
// next group behind it. Caller holds w.mu with w.flushing == false.
func (w *walFile) flushLocked() {
	w.flushing = true
	buf := w.pend
	w.pend = nil
	goal := w.flushed + int64(len(buf))
	w.mu.Unlock()
	m := w.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	_, err := w.f.Write(buf)
	if err == nil && w.fsync {
		err = w.f.Sync()
	}
	if m != nil {
		m.flushDur.ObserveDuration(time.Since(start))
		m.commitBytes.Observe(float64(len(buf)))
	}
	w.mu.Lock()
	w.flushing = false
	if err != nil {
		w.err = err
	} else {
		w.flushed = goal
	}
	if w.spare == nil || cap(buf) > cap(w.spare) {
		w.spare = buf[:0] // recycle the written buffer for the next group
	}
	w.cond.Broadcast()
}

// size returns the logical segment size (written + staged bytes).
func (w *walFile) size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// sync flushes anything staged and forces an fsync regardless of mode.
func (w *walFile) sync() error {
	w.mu.Lock()
	w.waitFlushedLocked(w.appended)
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.f.Sync()
}

// close flushes staged bytes and closes the file.
func (w *walFile) close() error {
	w.mu.Lock()
	w.waitFlushedLocked(w.appended)
	err := w.err
	w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
