package ldp

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/transport"
)

// bindingList is a key→shard table's contents, oldest first.
func bindingList(b *transport.KeyHorizon[string]) []durable.Binding {
	var out []durable.Binding
	for k, ep := range b.All() {
		out = append(out, durable.Binding{Key: k, Endpoint: ep})
	}
	return out
}

// bindingFleet returns a fleet over an 8-value OUE domain, binding log at
// path when path is not empty.
func bindingFleet(t *testing.T, path string) *Fleet {
	t.Helper()
	o, err := OracleByName("OUE", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var opts []FleetOption
	if path != "" {
		opts = append(opts, WithFleetBindingLog(path))
	}
	f, err := NewFleet(o, Histogram(8), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// The fleet's key→shard table is what the binding log compacts to and what a
// restart replays, so its order is the contract: first-seen, oldest first,
// such that putting the bindings back in that order rebuilds a table that
// evicts the same keys next. A lookup does not refresh a key; the bound
// evicts the first seen.
func TestKeyBindingsLiveReplaysToTheSameLRU(t *testing.T) {
	b := bindingFleet(t, "").bindings
	key := func(i int) string { return fmt.Sprintf("key-%05d", i) }
	for i := 0; i < transport.IdempotencyHorizon; i++ {
		b.Put(key(i), fmt.Sprintf("http://shard-%d", i%3))
	}
	if _, ok := b.Get(key(0)); !ok { // a lookup; key 0 stays the oldest
		t.Fatal("key 0 not bound")
	}
	b.Put("d", "http://shard-3") // evicts key 0, the first seen
	if _, ok := b.Get(key(0)); ok {
		t.Fatal("the first-seen key survived eviction after a lookup")
	}
	got := bindingList(b)
	if len(got) != transport.IdempotencyHorizon {
		t.Fatalf("table holds %d bindings, want %d", len(got), transport.IdempotencyHorizon)
	}
	for i, kb := range got[:len(got)-1] {
		if want := (durable.Binding{Key: key(i + 1), Endpoint: fmt.Sprintf("http://shard-%d", (i+1)%3)}); kb != want {
			t.Fatalf("live[%d] = %+v, want %+v", i, kb, want)
		}
	}
	if last := got[len(got)-1]; last != (durable.Binding{Key: "d", Endpoint: "http://shard-3"}) {
		t.Fatalf("newest binding %+v, want d", last)
	}

	replayed := bindingFleet(t, "").bindings
	for _, kb := range got {
		replayed.Put(kb.Key, kb.Endpoint)
	}
	replayed.Put("e", "http://shard-4")
	b.Put("e", "http://shard-4")
	if _, ok := replayed.Get(key(1)); ok {
		t.Fatal("the replayed table kept key 1; the original evicts it next")
	}
	if again := bindingList(replayed); fmt.Sprint(again) != fmt.Sprint(bindingList(b)) {
		t.Fatal("the replayed table and the original hold different bindings")
	}
}

// A retried key does not move in the router's table, so the table a restart
// rebuilds from the binding log is the table the live router held: bind K,
// bind a horizon's worth of new keys minus one, retry K, bind one more key.
// The live table then evicts K, and so does the replay; with a table that
// refreshed K on the retry the live router would keep K while the reopened
// one forgot it, and a retry after the restart could land on another shard.
func TestFleetBindingLogReplaysFirstSeenOrder(t *testing.T) {
	o, err := OracleByName("OUE", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "bindings.log")
	live := bindingFleet(t, path)
	for i := 0; i < 2; i++ {
		col, err := NewCollector(o, Histogram(8), 0)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := NewCollectorService(col, MechanismInfoOf(o))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(svc.Handler())
		t.Cleanup(hs.Close)
		if err := live.Register(ctx, hs.URL); err != nil {
			t.Fatal(err)
		}
	}
	bind := func(key string) string {
		t.Helper()
		m, err := live.bindMember(key)
		if err != nil || m == nil {
			t.Fatalf("bind %q: member %v, err %v", key, m, err)
		}
		return m.endpoint
	}
	const k = "retried-key"
	first := bind(k)
	for i := 0; i < transport.IdempotencyHorizon-1; i++ {
		bind(fmt.Sprintf("key-%05d", i))
	}
	if again := bind(k); again != first {
		t.Fatalf("the retry of a bound key went to %s, not %s", again, first)
	}
	bind("one-more-key")
	held := bindingList(live.bindings)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := bindingFleet(t, path)
	liveEP, liveOK := live.bindings.Get(k)
	replayEP, replayOK := reopened.bindings.Get(k)
	if liveEP != replayEP || liveOK != replayOK {
		t.Fatalf("after a reopen the key binds to (%q, %v); the live fleet held (%q, %v)", replayEP, replayOK, liveEP, liveOK)
	}
	if got := bindingList(reopened.bindings); fmt.Sprint(got) != fmt.Sprint(held) {
		t.Fatalf("the reopened table holds %d bindings, the live one %d, or in another order", len(got), len(held))
	}
}
