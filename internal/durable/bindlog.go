package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/history"
	"repro/internal/transport"
)

// The router's key→shard binding log reuses the WAL's record framing — the
// same "LDPW" magic, CRC-over-payload header, and strict decoding — at record
// version 2, whose payload is
//
//	keyLen      uint8, then keyLen bytes       idempotency key
//	endpointLen uint8, then endpointLen bytes  shard base URL
//
// One record is one (re)binding; replaying a log in append order with
// latest-wins rebuilds the router's binding LRU, so a keyed retry that
// arrives after a router restart still routes to the shard whose idempotency
// cache saw the key first, instead of double-absorbing on a neighbor.
const bindingVersion = 2

// The log is bounded by the idempotency horizon, like the LRU it backs: a key
// older than the newest IdempotencyHorizon binds is one the shards' own
// idempotency caches have forgotten too, so keeping its record buys nothing.
// Open keeps the newest IdempotencyHorizon bindings, and the file is compacted
// back to the live set before it would pass bindingLogMaxRecords.
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
	out := append(buf, recordMagic...)
	out = append(out, bindingVersion)
	out = append(out, 0, 0, 0, 0, 0, 0, 0, 0) // crc + payload length, patched below
	payloadStart := len(out)
	out = append(out, byte(len(b.Key)))
	out = append(out, b.Key...)
	out = append(out, byte(len(b.Endpoint)))
	out = append(out, b.Endpoint...)
	payload := out[payloadStart:]
	binary.BigEndian.PutUint32(out[start+5:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(out[start+9:], uint32(len(payload)))
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
// binding LRU. Appends are fsynced before they return when opened with fsync,
// so an acknowledged bind survives a router crash.
type BindingLog struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	fsync   bool
	records int // records in the file (the compaction trigger)
}

// OpenBindingLog opens (creating if needed) the log at path, replays every
// intact record, and returns the live bindings — latest-wins per key, the
// newest IdempotencyHorizon of them — oldest-bind-first, so replaying them
// into an LRU in order reproduces the pre-restart recency. A torn tail (the
// crash case) is truncated away; a log that has accumulated far more records
// than live keys is compacted in place via an atomic rewrite.
func OpenBindingLog(path string, fsync bool) (*BindingLog, []Binding, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	records := 0
	good := int64(0)
	byKey := make(map[string]int) // key → index in order
	var order []Binding
	cr := &countingReader{r: bufio.NewReader(f)}
	for {
		b, err := DecodeBinding(cr)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Anything after the last intact record — torn or garbage — is the
			// dropped tail; sequential appends tear only at the physical end.
			break
		}
		records++
		good = cr.n
		if i, ok := byKey[b.Key]; ok {
			// Rebind: move the key to the newest position.
			order = append(order[:i], order[i+1:]...)
			for k, ob := range order[i:] {
				byKey[ob.Key] = i + k
			}
		}
		byKey[b.Key] = len(order)
		order = append(order, b)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	if len(order) > transport.IdempotencyHorizon {
		order = order[len(order)-transport.IdempotencyHorizon:]
	}
	l := &BindingLog{f: f, path: path, fsync: fsync, records: records}
	if records > 2*len(order)+64 {
		if err := l.compact(order); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return l, order, nil
}

// Append durably records one (re)binding. live returns the bindings the
// caller's LRU holds right now, oldest first (b not yet among them); it is
// called only when the file has reached bindingLogMaxRecords, to rewrite the
// log down to that live set before b is appended — so the file never outgrows
// the horizon however many distinct keys pass through. live runs under the
// log's lock and must not call back into the log.
func (l *BindingLog) Append(b Binding, live func() []Binding) error {
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
		if err := l.compact(live()); err != nil {
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

// compact atomically rewrites the log to exactly the live bindings. Caller
// guarantees exclusive access (open, before the log is shared; Append, under
// l.mu).
func (l *BindingLog) compact(live []Binding) error {
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(l.path)+".compact*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	var buf []byte
	for _, b := range live {
		if buf, err = AppendBinding(buf, b); err != nil {
			tmp.Close()
			return err
		}
	}
	if _, err := tmp.Write(buf); err != nil {
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
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return err
	}
	old := l.f
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	old.Close()
	l.f = f
	l.records = len(live)
	return history.SyncDir(dir)
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
