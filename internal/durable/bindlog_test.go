package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/transport"
)

func TestBindingRecordRoundTrip(t *testing.T) {
	bindings := []Binding{
		{Key: "k", Endpoint: "http://a:1"},
		{Key: strings.Repeat("K", maxRecordMeta), Endpoint: strings.Repeat("E", maxRecordMeta)},
		{Key: "key-2", Endpoint: "http://shard-1.internal:8089"},
	}
	var buf []byte
	for _, b := range bindings {
		var err error
		if buf, err = AppendBinding(buf, b); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf)
	for i, want := range bindings {
		got, err := DecodeBinding(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := DecodeBinding(r); err != io.EOF {
		t.Fatalf("want io.EOF at the boundary, got %v", err)
	}
}

func TestBindingRecordRejects(t *testing.T) {
	if _, err := AppendBinding(nil, Binding{Key: "", Endpoint: "e"}); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := AppendBinding(nil, Binding{Key: "k", Endpoint: strings.Repeat("e", maxRecordMeta+1)}); err == nil {
		t.Error("oversized endpoint accepted")
	}

	good, err := AppendBinding(nil, Binding{Key: "k", Endpoint: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	// Torn mid-payload and mid-header.
	for _, cut := range []int{len(good) - 3, envelopeHeaderLen - 2} {
		if _, err := DecodeBinding(bytes.NewReader(good[:cut])); !errors.Is(err, ErrTornRecord) {
			t.Errorf("cut at %d: want ErrTornRecord, got %v", cut, err)
		}
	}
	// A flipped payload byte must fail the CRC.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01
	if _, err := DecodeBinding(bytes.NewReader(bad)); err == nil {
		t.Error("CRC mismatch accepted")
	}
	// A WAL-version record is not a binding record.
	bad = append([]byte(nil), good...)
	bad[4] = recordVersion
	if _, err := DecodeBinding(bytes.NewReader(bad)); err == nil {
		t.Error("wrong record version accepted")
	}
}

// Replay is latest-wins per key while keeping oldest-bind-first order, so the
// router's LRU rebuilds with pre-restart recency.
func TestBindingLogReplayLatestWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bindings.log")
	l, got, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d bindings", len(got))
	}
	appends := []Binding{
		{Key: "a", Endpoint: "http://one"},
		{Key: "b", Endpoint: "http://two"},
		{Key: "a", Endpoint: "http://three"}, // rebind: a is now newest
		{Key: "c", Endpoint: "http://one"},
	}
	for _, b := range appends {
		if err := l.Append(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := OpenBindingLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := []Binding{
		{Key: "b", Endpoint: "http://two"},
		{Key: "a", Endpoint: "http://three"},
		{Key: "c", Endpoint: "http://one"},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// A torn tail — the crash signature — is dropped and truncated away on open;
// every intact record before it survives, and the log stays appendable.
func TestBindingLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bindings.log")
	l, _, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Binding{Key: "a", Endpoint: "http://one"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Binding{Key: "b", Endpoint: "http://two"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: a partial third record at the physical end.
	torn, err := AppendBinding(nil, Binding{Key: "c", Endpoint: "http://three"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-4]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	l2, got, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
		t.Fatalf("replay after torn tail: %+v", got)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d >= %d bytes", after.Size(), before.Size())
	}
	// The truncated log accepts appends cleanly at the new end.
	if err := l2.Append(Binding{Key: "c", Endpoint: "http://three"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err = OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != (Binding{Key: "c", Endpoint: "http://three"}) {
		t.Fatalf("append after truncation lost: %+v", got)
	}
}

// Damage that is not a torn tail refuses the open instead of truncating:
// one flipped payload byte in the middle binding, with an intact binding
// after it, must not erase both (a retry of the last key would then route to
// a shard that never saw it and be absorbed twice), and neither may a
// CRC-valid record whose payload does not parse. The file is left as it was.
func TestBindingLogRefusesCorruptionBeforeIntactRecords(t *testing.T) {
	var good []byte
	for _, b := range []Binding{{Key: "a", Endpoint: "http://one"}, {Key: "b", Endpoint: "http://two"}, {Key: "c", Endpoint: "http://three"}} {
		var err error
		if good, err = AppendBinding(good, b); err != nil {
			t.Fatal(err)
		}
	}
	recLen := len(good) / 3
	flipped := append([]byte(nil), good...)
	flipped[recLen+envelopeHeaderLen+1] ^= 0x01 // b's key byte
	// A payload with a trailing byte, under a CRC that covers it.
	unparsable := append([]byte(nil), good[:recLen]...)
	unparsable = append(unparsable, appendCRCAndLen([]byte{'L', 'D', 'P', 'W', bindingVersion}, []byte{1, 'b', 1, 'e', 0})...)
	for name, data := range map[string][]byte{
		"flipped payload byte, intact record after": flipped,
		"CRC-valid payload that does not parse":     unparsable,
	} {
		path := filepath.Join(t.TempDir(), "bindings.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := OpenBindingLog(path, false)
		if err == nil {
			l.Close()
			t.Fatalf("%s: open accepted the log and replayed %+v", name, got)
		}
		if want := fmt.Sprintf("offset %d", recLen); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name %s", name, err, want)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, data) {
			t.Fatalf("%s: refused open changed the file (%d → %d bytes)", name, len(data), len(after))
		}
	}
}

// A log with far more records than live keys compacts on open: the file
// shrinks to exactly the live set, preserving replay order.
func TestBindingLogCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bindings.log")
	l, _, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	// 3 live keys rebound many times: records ≫ 2·live+64.
	for i := 0; i < 100; i++ {
		for _, k := range []string{"a", "b", "c"} {
			if err := l.Append(Binding{Key: k, Endpoint: "http://shard-" + k}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	l2, got, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 3 {
		t.Fatalf("replayed %d live bindings, want 3", len(got))
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size()/10 {
		t.Fatalf("compaction did not shrink the log: %d -> %d bytes", before.Size(), after.Size())
	}
	// And the compacted file replays identically.
	_, again, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if again[i] != got[i] {
			t.Fatalf("compacted replay[%d] = %+v, want %+v", i, again[i], got[i])
		}
	}
}

// The log is bounded by the idempotency horizon however many distinct keys
// pass through it: with per-request random keys every record is a distinct
// key, so "compact when records ≫ live keys" alone never fires. Appending
// three horizons of distinct keys must leave a file of at most
// bindingLogMaxRecords records, and a reopen must hand back exactly the
// newest horizon of them, oldest first — what the router's LRU would hold.
func TestBindingLogBoundedByHorizon(t *testing.T) {
	const horizon = transport.IdempotencyHorizon
	path := filepath.Join(t.TempDir(), "bindings.log")
	l, _, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	binding := func(i int) Binding {
		return Binding{Key: fmt.Sprintf("key-%08d", i), Endpoint: "http://shard-0"}
	}
	one, err := AppendBinding(nil, binding(0))
	if err != nil {
		t.Fatal(err)
	}
	maxBytes := int64(bindingLogMaxRecords * len(one))

	// lru mirrors the fleet's side of the contract: the newest horizon binds,
	// oldest first, handed over when the log asks to compact.
	var lru []Binding
	for i := 0; i < 3*horizon; i++ {
		b := binding(i)
		if err := l.Append(b, func() []Binding { return lru }); err != nil {
			t.Fatal(err)
		}
		if lru = append(lru, b); len(lru) > horizon {
			lru = lru[1:]
		}
		if i%512 == 0 || i == 3*horizon-1 {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() > maxBytes {
				t.Fatalf("after %d binds the log is %d bytes, over the %d-record bound (%d bytes)", i+1, st.Size(), bindingLogMaxRecords, maxBytes)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != horizon {
		t.Fatalf("reopen replayed %d bindings, want the newest %d", len(got), horizon)
	}
	for i, b := range got {
		if want := binding(2*horizon + i); b != want {
			t.Fatalf("replay[%d] = %+v, want %+v (newest horizon, oldest first)", i, b, want)
		}
	}
}

// An over-long log left by a build that never compacted — every record a
// distinct key — is cut to the newest horizon on open, file included.
func TestBindingLogOpenTrimsToHorizon(t *testing.T) {
	const horizon = transport.IdempotencyHorizon
	path := filepath.Join(t.TempDir(), "bindings.log")
	var buf []byte
	for i := 0; i < 3*horizon; i++ {
		var err error
		if buf, err = AppendBinding(buf, Binding{Key: fmt.Sprintf("key-%08d", i), Endpoint: "http://shard-0"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := OpenBindingLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(got) != horizon || got[0].Key != fmt.Sprintf("key-%08d", 2*horizon) {
		t.Fatalf("open replayed %d bindings starting at %q, want the newest %d", len(got), got[0].Key, horizon)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(buf) / 3); st.Size() != want {
		t.Fatalf("log is %d bytes after open, want %d (one horizon of records)", st.Size(), want)
	}
}
