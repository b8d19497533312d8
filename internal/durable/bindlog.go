package durable

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/transport"
)

// The router's key→shard binding log reuses the WAL's record framing — the
// same "LDPW" magic, CRC-over-payload header, and strict decoding — at record
// version 2, whose payload is
//
//	keyLen      uint8, then keyLen bytes       idempotency key
//	endpointLen uint8, then endpointLen bytes  shard base URL
//
// One record is one (re)binding. Replaying a log in append order into a
// transport.KeyHorizon, latest bind winning and becoming the newest key,
// rebuilds the router's key→shard table with the same keys in the same
// first-seen order, so a keyed retry that arrives after a router restart
// still routes to the shard whose idempotency cache saw the key first,
// instead of double-absorbing on a neighbor.
const bindingVersion = 2

// The log is bounded by the idempotency horizon, like the table it backs: a
// key older than the newest IdempotencyHorizon binds is one the router has
// forgotten, so keeping its record buys nothing. Open keeps the newest
// IdempotencyHorizon bindings, and the file is compacted back to the live
// set before it would pass bindingLogMaxRecords.
const bindingLogMaxRecords = 2*transport.IdempotencyHorizon + 64

// Binding is one idempotency-key→shard-endpoint routing decision.
type Binding struct {
	Key      string
	Endpoint string
}

// AppendBinding appends b's record encoding to buf.
func AppendBinding(buf []byte, b Binding) ([]byte, error) {
	if len(b.Key) == 0 || len(b.Key) > maxRecordMeta {
		return buf, fmt.Errorf("durable: binding key length %d outside 1..%d", len(b.Key), maxRecordMeta)
	}
	if len(b.Endpoint) == 0 || len(b.Endpoint) > maxRecordMeta {
		return buf, fmt.Errorf("durable: binding endpoint length %d outside 1..%d", len(b.Endpoint), maxRecordMeta)
	}
	start := len(buf)
	out := beginEnvelope(buf, recordMagic, bindingVersion)
	out = append(out, byte(len(b.Key)))
	out = append(out, b.Key...)
	out = append(out, byte(len(b.Endpoint)))
	out = append(out, b.Endpoint...)
	payload := out[start+envelopeHeaderLen:]
	sealEnvelope(out[start:], crc32.ChecksumIEEE(payload), len(payload))
	return out, nil
}

// DecodeBinding reads one binding record. A reader exhausted exactly at a
// record boundary returns io.EOF; one exhausted mid-record returns
// ErrTornRecord, the crash signature the tail policy drops.
func DecodeBinding(r io.Reader) (Binding, error) {
	payload, err := readEnvelope(r, bindingVersion, 2*(maxRecordMeta+1))
	if err != nil {
		return Binding{}, err
	}
	var b Binding
	buf := payload
	for _, field := range []struct {
		what string
		dst  *string
	}{{"key", &b.Key}, {"endpoint", &b.Endpoint}} {
		if len(buf) < 1 {
			return Binding{}, fmt.Errorf("%w: truncated at its %s length", errCorruptRecord, field.what)
		}
		n := int(buf[0])
		buf = buf[1:]
		if len(buf) < n {
			return Binding{}, fmt.Errorf("%w: truncated at its %s", errCorruptRecord, field.what)
		}
		*field.dst = string(buf[:n])
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return Binding{}, fmt.Errorf("%w: %d trailing bytes", errCorruptRecord, len(buf))
	}
	if b.Key == "" || b.Endpoint == "" {
		return Binding{}, fmt.Errorf("%w: empty key or endpoint", errCorruptRecord)
	}
	return b, nil
}

// BindingLog is the append-only durable store behind a router's key→shard
// table. Appends are fsynced before they return when opened with fsync, so an
// acknowledged bind survives a router crash.
type BindingLog struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	fsync   bool
	records int // records in the file (the compaction trigger)
}

// OpenBindingLog opens (creating if needed) the log at path, replays every
// intact record into a fresh transport.KeyHorizon — the latest bind per key
// wins and becomes the newest, and the table keeps the newest
// IdempotencyHorizon keys — and returns that table for the router to route
// by. Damage follows the WAL's tail policy (truncateTornTail): a torn tail
// (the crash case) is truncated away, and any other damage — an intact record
// after it, a CRC-valid payload that does not parse — refuses the open,
// naming the offset, rather than forget the bindings behind it. A log that
// has accumulated far more records than live keys is compacted in place via
// an atomic rewrite.
func OpenBindingLog(path string, fsync bool) (*BindingLog, *transport.KeyHorizon[string], error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	records := 0
	good := int64(0)
	live := transport.NewKeyHorizon[string]()
	cr := &countingReader{r: bufio.NewReader(f)}
	for {
		b, err := DecodeBinding(cr)
		if err == io.EOF {
			break
		}
		if err != nil {
			if _, err := truncateTornTail(f, true, good, err, func(b []byte) bool {
				_, err := DecodeBinding(bytes.NewReader(b))
				return err == nil
			}); err != nil {
				f.Close()
				return nil, nil, err
			}
			break
		}
		records++
		good = cr.n
		live.Delete(b.Key) // a rebind makes the key the newest
		live.Put(b.Key, b.Endpoint)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &BindingLog{f: f, path: path, fsync: fsync, records: records}
	if records > 2*live.Len()+64 {
		if err := l.compact(live); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return l, live, nil
}

// Append durably records one (re)binding. live is the caller's key→shard
// table as it is right now (b not yet in it); it is read only when the file
// has reached bindingLogMaxRecords, to rewrite the log down to that live set
// before b is appended — so the file never outgrows the horizon however many
// distinct keys pass through. The caller's lock on live must be held.
func (l *BindingLog) Append(b Binding, live *transport.KeyHorizon[string]) error {
	rec, err := AppendBinding(nil, b)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("durable: binding log is closed")
	}
	if l.records >= bindingLogMaxRecords {
		if err := l.compact(live); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	if l.fsync {
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.records++
	return nil
}

// compact atomically rewrites the log to exactly the live bindings, oldest
// first. Caller guarantees exclusive access (open, before the log is shared;
// Append, under l.mu).
func (l *BindingLog) compact(live *transport.KeyHorizon[string]) error {
	var buf []byte
	for key, endpoint := range live.All() {
		var err error
		if buf, err = AppendBinding(buf, Binding{Key: key, Endpoint: endpoint}); err != nil {
			return err
		}
	}
	if err := ReplaceFile(l.path, func(f *os.File) error {
		_, err := f.Write(buf)
		return err
	}); err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f.Close()
	l.f = f
	l.records = live.Len()
	return nil
}

// Close flushes and closes the log.
func (l *BindingLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
