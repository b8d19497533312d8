package ldp

import (
	"fmt"
	"testing"

	"repro/internal/durable"
)

// live is what the binding log compacts to and what a restart replays, so its
// order is the contract: oldest first by recency of use, such that putting
// the bindings back in that order rebuilds an LRU that evicts the same keys
// next. A lookup refreshes a key; capacity evicts the stalest.
func TestKeyBindingsLiveReplaysToTheSameLRU(t *testing.T) {
	b := newKeyBindings(3)
	for i, k := range []string{"a", "b", "c"} {
		b.put(k, fmt.Sprintf("http://shard-%d", i))
	}
	if _, ok := b.get("a"); !ok { // a is now the most recent
		t.Fatal("a not bound")
	}
	b.put("d", "http://shard-3") // evicts b, the stalest
	want := []durable.Binding{
		{Key: "c", Endpoint: "http://shard-2"},
		{Key: "a", Endpoint: "http://shard-0"},
		{Key: "d", Endpoint: "http://shard-3"},
	}
	got := b.live()
	if len(got) != len(want) {
		t.Fatalf("live = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("live[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	replayed := newKeyBindings(3)
	for _, kb := range got {
		replayed.put(kb.Key, kb.Endpoint)
	}
	replayed.put("e", "http://shard-4")
	b.put("e", "http://shard-4")
	if _, ok := replayed.get("c"); ok {
		t.Fatal("the replayed LRU kept c; the original evicts it next")
	}
	if again := replayed.live(); fmt.Sprint(again) != fmt.Sprint(b.live()) {
		t.Fatalf("replayed LRU holds %+v, original %+v", again, b.live())
	}
}
