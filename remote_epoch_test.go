package ldp_test

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// epochBackend is a scriptable transport backend whose snapshot epoch the
// test moves at will — the stand-in for a server that restarted and lost its
// durable state.
type epochBackend struct {
	mu    sync.Mutex
	state []float64
	count float64
	epoch uint64
}

func (b *epochBackend) IngestBatch(reports []protocol.Report, key string) error { return nil }

// The scripted server is memory-only and serves no queries.
func (b *epochBackend) Durability() (transport.DurabilityHealth, bool) {
	return transport.DurabilityHealth{}, false
}

func (b *epochBackend) SnapshotAt(epoch uint64, nearest bool) (transport.Snapshot, error) {
	return transport.Snapshot{}, &transport.EpochNotRetainedError{Requested: epoch}
}

func (b *epochBackend) Query(transport.QueryRequest, io.Writer) error {
	return errors.New("the scripted backend serves no queries")
}

func (b *epochBackend) SnapshotEpoch() ([]float64, float64, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := append([]float64(nil), b.state...)
	return st, b.count, b.epoch
}

func (b *epochBackend) CountEpoch() (float64, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count, b.epoch
}

func (b *epochBackend) set(count float64, epoch uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.count, b.epoch = count, epoch
}

// A snapshot epoch moving backwards between Snap calls is exactly the symptom
// of an undetected lossy restart; RemoteCollector must surface it as the
// typed EpochRegressionError instead of handing back a consistent-looking
// undercount.
func TestRemoteSnapDetectsEpochRegression(t *testing.T) {
	const n = 8
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	backend := &epochBackend{state: make([]float64, n), count: 40, epoch: 5}
	srv, err := transport.NewServer(backend, transport.Info{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	rc, err := ldp.NewRemoteCollector(hs.URL, agg, ldp.WithRemoteHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := rc.Snap(ctx); err != nil {
		t.Fatalf("first snap: %v", err)
	}
	// Same epoch again is fine (identical snapshot), and advancing is fine.
	if _, err := rc.Snap(ctx); err != nil {
		t.Fatalf("same-epoch snap: %v", err)
	}
	backend.set(55, 9)
	if _, err := rc.Snap(ctx); err != nil {
		t.Fatalf("advanced snap: %v", err)
	}

	// The lossy restart: epoch (and count) fall back.
	backend.set(3, 2)
	_, err = rc.Snap(ctx)
	var reg *ldp.EpochRegressionError
	if !errors.As(err, &reg) {
		t.Fatalf("regressed snap returned %v, want an EpochRegressionError", err)
	}
	if reg.Prev != 9 || reg.Observed != 2 || reg.PrevCount != 55 || reg.ObservedCount != 3 {
		t.Fatalf("regression details %+v", reg)
	}

	// The client keeps refusing until the server's epoch catches back up —
	// the high-water mark is not reset by the failed call.
	backend.set(4, 3)
	if _, err := rc.Snap(ctx); !errors.As(err, &reg) {
		t.Fatalf("still-regressed snap returned %v", err)
	}
	backend.set(60, 9)
	if _, err := rc.Snap(ctx); err != nil {
		t.Fatalf("recovered snap: %v", err)
	}
}
