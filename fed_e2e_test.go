package ldp_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	ldp "repro"
)

// The fan-in acceptance criterion: two ldpserve shards each ingesting half
// of a population, merged via Snapshot.Merge (the ldpquery -servers path:
// RemoteCollector.Snap from each loopback server, then Merge), must produce
// answers bit-identical to a single collector ingesting the whole population
// at the same per-client seeds — for the strategy mechanism and all three
// frequency oracles. Accumulators are integer-valued and merging is exact,
// so "identical" means bit-for-bit, not within tolerance.
func TestFedMergeMatchesSingleCollector(t *testing.T) {
	const n, users, seed = 16, 2000, 11
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
			// Randomize once at fixed per-client seeds; both deployments see
			// the identical report stream.
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

			est, err := ldp.NewEstimator(m.agg, w)
			if err != nil {
				t.Fatal(err)
			}

			// Reference: one collector sees the whole population.
			single := newSerialRef(m.agg)
			single.add(t, reports...)
			wantUnbiased, err := est.Answers(single.snap())
			if err != nil {
				t.Fatal(err)
			}
			wantCons, err := est.ConsistentAnswers(single.snap())
			if err != nil {
				t.Fatal(err)
			}

			// Fan-in: two loopback ldpserve shards, half the population each.
			info := ldp.MechanismInfoOf(m.agg)
			snaps := make([]ldp.Snapshot, 2)
			half := len(reports) / 2
			for i, part := range [][]ldp.Report{reports[:half], reports[half:]} {
				hs := startCollectorServer(t, m.agg, w, info)
				rcol, err := ldp.NewRemoteCollector(hs.URL, m.agg,
					ldp.WithRemoteBatch(113), ldp.WithRemoteHTTPClient(hs.Client()))
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				// The fan-in handshake: verify the shard's identity (digest
				// included) before trusting its snapshot.
				if err := rcol.Verify(ctx); err != nil {
					t.Fatal(err)
				}
				if err := rcol.IngestBatch(ctx, part); err != nil {
					t.Fatal(err)
				}
				if err := rcol.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				h, err := rcol.Healthz(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if h.Count != float64(len(part)) {
					t.Fatalf("shard %d holds %v reports, want %d", i, h.Count, len(part))
				}
				if snaps[i], err = rcol.Snap(ctx); err != nil {
					t.Fatal(err)
				}
				if snaps[i].Epoch() == 0 {
					t.Fatalf("shard %d snapshot carries no epoch", i)
				}
			}
			merged, err := ldp.MergeSnapshots(snaps...)
			if err != nil {
				t.Fatal(err)
			}
			if merged.Count() != float64(len(reports)) {
				t.Fatalf("merged count %v, want %d", merged.Count(), len(reports))
			}

			gotUnbiased, err := est.Answers(merged)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantUnbiased {
				if gotUnbiased[i] != wantUnbiased[i] {
					t.Fatalf("unbiased[%d]: merged %v != single %v", i, gotUnbiased[i], wantUnbiased[i])
				}
			}
			gotCons, err := est.ConsistentAnswers(merged)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantCons {
				if gotCons[i] != wantCons[i] {
					t.Fatalf("consistent[%d]: merged %v != single %v", i, gotCons[i], wantCons[i])
				}
			}
		})
	}
}

// TestFedMergeConcurrent is the race-enabled fan-in test: 2 loopback servers
// × 4 concurrent clients (2 per shard) stream keyed batches, then the two
// shard snapshots merge and must equal a single-threaded ingest of the same
// reports. Under -race in CI this exercises sharded ingest, the snapshot
// cache + epoch, the server's idempotency key table, and Snapshot.Merge across
// real HTTP handler goroutines.
func TestFedMergeConcurrent(t *testing.T) {
	const n, servers, clientsPer, perClient = 32, 2, 2, 1200
	w := ldp.Histogram(n)
	mech := e2eMechanisms(t, n)["strategy"]
	info := ldp.MechanismInfoOf(mech.agg)

	// Pre-randomize every client's reports so the concurrent phase is pure
	// transport + collector.
	rng := rand.New(rand.NewSource(21))
	all := make([][]ldp.Report, servers*clientsPer)
	for c := range all {
		all[c] = make([]ldp.Report, perClient)
		for i := range all[c] {
			rep, err := mech.rz.Randomize(rng.Intn(n), rng)
			if err != nil {
				t.Fatal(err)
			}
			all[c][i] = rep
		}
	}

	// newShardClient[s] dials shard s through its test server's transport.
	newShardClient := make([]func() (*ldp.RemoteCollector, error), servers)
	for s := 0; s < servers; s++ {
		hs := startCollectorServer(t, mech.agg, w, info)
		newShardClient[s] = func() (*ldp.RemoteCollector, error) {
			return ldp.NewRemoteCollector(hs.URL, mech.agg,
				ldp.WithRemoteBatch(64), ldp.WithRemoteHTTPClient(hs.Client()))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(all))
	for c := range all {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rcol, err := newShardClient[c%servers]()
			if err != nil {
				errs <- err
				return
			}
			ctx := context.Background()
			reports := all[c]
			for i := 0; i < len(reports); i += 300 {
				end := i + 300
				if end > len(reports) {
					end = len(reports)
				}
				if err := rcol.IngestBatch(ctx, reports[i:end]); err != nil {
					errs <- err
					return
				}
				// Interleave snapshot reads so epoch advancement races with
				// writers.
				if _, err := rcol.Snap(ctx); err != nil {
					errs <- err
					return
				}
			}
			errs <- rcol.Flush(ctx)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Merge the shard snapshots and compare against a serial reference.
	snaps := make([]ldp.Snapshot, servers)
	for s := range snaps {
		rcol, err := newShardClient[s]()
		if err != nil {
			t.Fatal(err)
		}
		if snaps[s], err = rcol.Snap(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := ldp.MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	ref := newSerialRef(mech.agg)
	for _, batch := range all {
		ref.add(t, batch...)
	}
	if merged.Count() != float64(servers*clientsPer*perClient) {
		t.Fatalf("merged count %v, want %d", merged.Count(), servers*clientsPer*perClient)
	}
	refState, gotState := ref.snap().State(), merged.State()
	for i := range refState {
		if gotState[i] != refState[i] {
			t.Fatalf("state[%d]: merged %v != serial %v", i, gotState[i], refState[i])
		}
	}
}
