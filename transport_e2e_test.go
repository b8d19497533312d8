package ldp_test

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	ldp "repro"
	"repro/internal/baselines"
)

// e2eMechanism is one mechanism family's protocol halves plus its transport
// identity (digest non-empty only for strategy matrices).
type e2eMechanism struct {
	rz     ldp.Randomizer
	agg    ldp.Aggregator
	digest string
}

// e2eMechanisms builds the four mechanism families at domain n, ε=1: a
// strategy matrix (randomized response — deterministic, no optimizer run)
// and the three frequency oracles.
func e2eMechanisms(t *testing.T, n int) map[string]e2eMechanism {
	t.Helper()
	out := make(map[string]e2eMechanism)
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	rz, err := ldp.NewRandomizer(s)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	out["strategy"] = e2eMechanism{rz, agg, ldp.StrategyDigest(s)}
	for _, name := range []string{"OUE", "OLH", "RAPPOR"} {
		o, err := ldp.OracleByName(name, n, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = e2eMechanism{o, o, ""}
	}
	return out
}

// collectorHandler binds col to the HTTP transport and returns the handler.
func collectorHandler(t testing.TB, col *ldp.Collector, info ldp.MechanismInfo) http.Handler {
	t.Helper()
	svc, err := ldp.NewCollectorService(col, info)
	if err != nil {
		t.Fatal(err)
	}
	return svc.Handler()
}

// startCollectorServer serves a fresh sharded collector for agg over a
// loopback HTTP listener — an in-test cmd/ldpserve.
func startCollectorServer(t *testing.T, agg ldp.Aggregator, w ldp.Workload, info ldp.MechanismInfo) *httptest.Server {
	t.Helper()
	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(collectorHandler(t, col, info))
	t.Cleanup(hs.Close)
	return hs
}

// The acceptance criterion of the transport layer: the same seed through the
// remote pipeline (randomize → frames over HTTP → remote sharded collector →
// snapshot → local reconstruction) must produce estimates identical to the
// in-process pipeline, for every mechanism family. Accumulators are
// integer-valued and merging is exact, so "identical" means bit-for-bit, not
// within tolerance.
func TestRemotePipelineMatchesLocal(t *testing.T) {
	const n, users, seed = 16, 2000, 3
	w := ldp.Prefix(n)
	x := make([]float64, n)
	{
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < users; i++ {
			x[rng.Intn(n)]++
		}
	}
	for name, m := range e2eMechanisms(t, n) {
		t.Run(name, func(t *testing.T) {
			// Randomize once; feed the identical reports to both pipelines.
			client, err := ldp.NewClient(m.rz)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed + 1))
			var reports []ldp.Report
			for u, cnt := range x {
				for j := 0; j < int(cnt); j++ {
					rep, err := client.Randomize(u, rng)
					if err != nil {
						t.Fatal(err)
					}
					reports = append(reports, rep)
				}
			}

			// Local pipeline: the serial reference.
			local := newSerialRef(m.agg)
			local.add(t, reports...)

			// Remote pipeline: loopback ldpserve + RemoteCollector, with a
			// batch size that forces several frames.
			hs := startCollectorServer(t, m.agg, w, ldp.MechanismInfo{
				Mechanism: name, Domain: m.agg.Domain(), Epsilon: m.rz.Epsilon(),
				Digest: m.digest,
			})
			rcol, err := ldp.NewRemoteCollector(hs.URL, m.agg, w, ldp.WithRemoteBatch(97),
				ldp.WithRemoteHTTPClient(hs.Client()))
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := rcol.Verify(ctx, name, m.rz.Epsilon(), m.digest); err != nil {
				t.Fatal(err)
			}
			if err := rcol.IngestBatch(ctx, reports); err != nil {
				t.Fatal(err)
			}
			if err := rcol.Flush(ctx); err != nil {
				t.Fatal(err)
			}

			count, err := rcol.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if count != float64(len(reports)) {
				t.Fatalf("remote count %v, want %d", count, len(reports))
			}
			est := estimatorFor(t, m.agg, w)
			remoteSnap, err := rcol.Snap(ctx)
			if err != nil {
				t.Fatal(err)
			}
			remoteUnbiased := mustRead(t)(est.Answers(remoteSnap))
			localUnbiased := mustRead(t)(est.Answers(local.snap()))
			for i := range localUnbiased {
				if remoteUnbiased[i] != localUnbiased[i] {
					t.Fatalf("unbiased[%d]: remote %v != local %v", i, remoteUnbiased[i], localUnbiased[i])
				}
			}
			remoteCons := mustRead(t)(est.ConsistentAnswers(remoteSnap))
			localCons := mustRead(t)(est.ConsistentAnswers(local.snap()))
			for i := range localCons {
				if remoteCons[i] != localCons[i] {
					t.Fatalf("consistent[%d]: remote %v != local %v", i, remoteCons[i], localCons[i])
				}
			}
		})
	}
}

// Two different strategy matrices can share name ("strategy"), domain, and
// declared ε — only the digest tells them apart. Verify must reject the
// mismatch at the handshake, before a single report poisons the shared
// accumulator.
func TestVerifyRejectsStrategyDigestMismatch(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	served := baselines.RandomizedResponse(n, 1.0).Strategy()
	other := baselines.RandomizedResponse(n, 1.0).Strategy()
	// Same shape, same ε, different channel: nudge two entries of one
	// column, preserving the column sum so the matrix stays a valid
	// strategy.
	d := 0.1 / float64(n)
	other.Q.Set(0, 0, other.Q.At(0, 0)-d)
	other.Q.Set(1, 0, other.Q.At(1, 0)+d)
	if ldp.StrategyDigest(served) == ldp.StrategyDigest(other) {
		t.Fatal("distinct matrices produced one digest")
	}
	agg, err := ldp.NewAggregator(served)
	if err != nil {
		t.Fatal(err)
	}
	hs := startCollectorServer(t, agg, w, ldp.MechanismInfo{
		Mechanism: "strategy", Domain: n, Epsilon: 1, Digest: ldp.StrategyDigest(served),
	})
	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, w, ldp.WithRemoteHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rcol.Verify(ctx, "strategy", 1, ldp.StrategyDigest(other)); err == nil {
		t.Fatal("client with a different strategy matrix passed the handshake")
	}
	if err := rcol.Verify(ctx, "strategy", 1, ldp.StrategyDigest(served)); err != nil {
		t.Fatalf("matching strategy rejected: %v", err)
	}
}

// A failed ship must lose nothing: reports the server did not accept return
// to the client buffer, and a retried Flush delivers exactly the full set —
// no loss, no duplicates — even when the failure interleaves with further
// ingestion.
func TestRemoteCollectorRetainsReportsOnFailure(t *testing.T) {
	const n = 16
	w := ldp.Histogram(n)
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}
	col, err := ldp.NewCollector(agg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	inner := collectorHandler(t, col, ldp.MechanismInfo{Domain: n})
	// Fail every other POST /reports before it reaches the collector. The
	// toggle is atomic: handlers usually serialize on one keep-alive
	// connection, but a reconnect mid-test would run them concurrently.
	var failSeq atomic.Int64
	outer := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost {
			if failSeq.Add(1)%2 == 1 {
				http.Error(rw, "injected outage", http.StatusBadGateway)
				return
			}
		}
		inner.ServeHTTP(rw, req)
	})
	hs := httptest.NewServer(outer)
	t.Cleanup(hs.Close)

	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, w, ldp.WithRemoteBatch(10),
		ldp.WithRemoteHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const total = 95
	for i := 0; i < total; i++ {
		// Errors are expected on the outage requests; the contract is that
		// the reports survive in the buffer for the next attempt.
		_ = rcol.Ingest(ctx, ldp.Report{Index: i % n})
	}
	for attempt := 0; attempt < 2*total; attempt++ {
		if err := rcol.Flush(ctx); err == nil {
			break
		}
	}
	snap, err := rcol.Snap(ctx)
	if err != nil {
		t.Fatal(err)
	}
	state, count := snap.State(), snap.Count()
	if count != total {
		t.Fatalf("server holds %v reports after retries, want exactly %d", count, total)
	}
	var mass float64
	for _, v := range state {
		mass += v
	}
	if mass != total {
		t.Fatalf("accumulator mass %v, want %d (loss or duplication)", mass, total)
	}
}

// TestTransportConcurrentClients is the loopback race test: 8 clients stream
// framed batches into one served collector concurrently; the resulting
// snapshot must equal a single-threaded ingest of the same reports. Run
// under -race in CI, this exercises the full locking story — sharded ingest,
// atomic counters, and the merging snapshot read — across real HTTP handler
// goroutines.
func TestTransportConcurrentClients(t *testing.T) {
	const n, clients, perClient = 32, 8, 1500
	w := ldp.Histogram(n)
	s := baselines.RandomizedResponse(n, 1.0).Strategy()
	rz, err := ldp.NewRandomizer(s)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := ldp.NewAggregator(s)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-randomize every client's reports so the concurrent phase is pure
	// transport + collector.
	all := make([][]ldp.Report, clients)
	rng := rand.New(rand.NewSource(9))
	for c := range all {
		all[c] = make([]ldp.Report, perClient)
		for i := range all[c] {
			rep, err := rz.Randomize(rng.Intn(n), rng)
			if err != nil {
				t.Fatal(err)
			}
			all[c][i] = rep
		}
	}

	hs := startCollectorServer(t, agg, w, ldp.MechanismInfo{Mechanism: "strategy", Domain: n, Epsilon: 1})
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(reports []ldp.Report) {
			defer wg.Done()
			rcol, err := ldp.NewRemoteCollector(hs.URL, agg, w, ldp.WithRemoteBatch(64),
				ldp.WithRemoteHTTPClient(hs.Client()))
			if err != nil {
				errs <- err
				return
			}
			ctx := context.Background()
			// Interleave snapshot reads with ingestion so cache
			// invalidation races with writers.
			for i := 0; i < len(reports); i += 250 {
				end := i + 250
				if end > len(reports) {
					end = len(reports)
				}
				if err := rcol.IngestBatch(ctx, reports[i:end]); err != nil {
					errs <- err
					return
				}
				if _, err := rcol.Snap(ctx); err != nil {
					errs <- err
					return
				}
			}
			errs <- rcol.Flush(ctx)
		}(all[c])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Reference: single-threaded ingest of the same reports.
	ref := newSerialRef(agg)
	for _, batch := range all {
		ref.add(t, batch...)
	}
	rcol, err := ldp.NewRemoteCollector(hs.URL, agg, w, ldp.WithRemoteHTTPClient(hs.Client()))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rcol.Snap(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	state, count := snap.State(), snap.Count()
	if count != clients*perClient {
		t.Fatalf("snapshot count %v, want %d", count, clients*perClient)
	}
	refState := ref.snap().State()
	for i := range refState {
		if state[i] != refState[i] {
			t.Fatalf("state[%d]: concurrent %v != serial %v", i, state[i], refState[i])
		}
	}
}
