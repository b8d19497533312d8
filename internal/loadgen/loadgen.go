// Package loadgen is the million-client traffic simulator: a deterministic,
// PCG-seeded load generator that drives a live router→shards deployment with
// the traffic shape production LDP collection actually sees — zipfian and
// time-shifting item popularity, bursty arrivals, retry storms, client
// abandonment, and shards that slow down, 503, or die mid-run — while a
// scorer checks exactly-once accounting, estimate error against the
// generator's known ground truth, and /metrics against /healthz. It is a
// correctness harness: latency and throughput are measured by bench/.
//
// # Determinism
//
// Every simulated client's behavior — its item, its phase, whether it
// abandons before reporting — is a pure function of (scenario seed, client
// index), drawn from a per-client PCG stream. Reports are randomized from a
// per-client seeded PRNG. Because the collector accumulator is an
// order-independent sum and the retry discipline delivers every offered
// report exactly once (the run settles: faults heal, killed shards recover,
// and Flush loops until every batch is acknowledged), the scorecard's counts
// and estimates are bit-reproducible at a fixed seed — across worker counts,
// machine speeds, and fault timing. Only the ops section (duration, WAL
// lag, coverage dips, chaos counters) varies run to run; reproducibility
// checks compare the deterministic sections and ignore it.
//
// # Progress-indexed faults
//
// Fault schedules (chaos.Schedule) fire at fractions of offered load, not
// wall-clock times, so a fixed seed exercises the same kill/heal sequence at
// the same point in the report stream on any machine.
package loadgen

import (
	"fmt"
	"math"
	"strings"

	ldp "repro"
	"repro/internal/baselines"
	"repro/internal/chaos"
)

// Scenario describes one traffic shape against one deployment. The zero
// value is not runnable; start from a preset (SmokeScenario, SoakScenario)
// or fill every field and Validate.
type Scenario struct {
	// Name labels the scorecard.
	Name string
	// Seed drives every random decision in the run: client items, phases,
	// abandonment, report randomization, chaos draws.
	Seed uint64
	// Clients is the number of simulated LDP clients.
	Clients int
	// Mechanism is "oue", "olh", "rappor", or "strategy" (ε-parameterized
	// randomized-response strategy matrix — exercises the matrix-mechanism
	// aggregation path).
	Mechanism string
	// Domain and Epsilon configure the mechanism.
	Domain  int
	Epsilon float64
	// ZipfS is the zipfian popularity exponent over the domain (s <= 0 means
	// uniform). s=1.1 is the classic heavy-tail web workload.
	ZipfS float64
	// Phases splits the client population into consecutive arrival phases;
	// each phase rotates the popularity ranking by ShiftPerPhase items, so
	// the hot set moves over time the way trending items do.
	Phases        int
	ShiftPerPhase int
	// Arrivals are relative per-phase arrival weights (bursty/diurnal load:
	// e.g. {1, 4, 1} is a 4× midday burst). nil means flat. Length must
	// equal Phases when set.
	Arrivals []float64
	// AbandonRate is the fraction of clients that give up before reporting
	// (app killed, offline). Abandonment is decided up-front per client from
	// its seeded stream — never from timing — so the participant set is
	// deterministic.
	AbandonRate float64
	// RetryStorm tightens the retry policy into an aggressive storm (many
	// attempts, short backoff) — paired with a lossy fault plan it produces
	// the duplicate-send pressure idempotency keys exist for.
	RetryStorm bool
	// Schedule is the progress-indexed fault schedule (see chaos.Schedule).
	Schedule []chaos.Event
	// Workers is the number of concurrent sender goroutines (0 = 8). The
	// client population is statically partitioned across workers, so counts
	// do not depend on this.
	Workers int
	// Batch is the reports-per-frame shipped by each worker's
	// RemoteCollector (0 = ldp.DefaultRemoteBatch).
	Batch int
}

// Validate checks the scenario is runnable.
func (s *Scenario) Validate() error {
	if s.Clients <= 0 {
		return fmt.Errorf("loadgen: scenario needs Clients > 0, got %d", s.Clients)
	}
	if s.Domain <= 1 {
		return fmt.Errorf("loadgen: scenario needs Domain > 1, got %d", s.Domain)
	}
	if s.Epsilon <= 0 || math.IsNaN(s.Epsilon) || math.IsInf(s.Epsilon, 0) {
		return fmt.Errorf("loadgen: bad epsilon %v", s.Epsilon)
	}
	if s.Phases <= 0 {
		s.Phases = 1
	}
	if s.Arrivals != nil && len(s.Arrivals) != s.Phases {
		return fmt.Errorf("loadgen: %d arrival weights for %d phases", len(s.Arrivals), s.Phases)
	}
	for _, a := range s.Arrivals {
		if a < 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("loadgen: bad arrival weight %v", a)
		}
	}
	if s.AbandonRate < 0 || s.AbandonRate >= 1 {
		return fmt.Errorf("loadgen: abandon rate %v outside [0, 1)", s.AbandonRate)
	}
	if s.Workers <= 0 {
		s.Workers = 8
	}
	if _, err := BuildMechanism(s.Mechanism, s.Domain, s.Epsilon); err != nil {
		return err
	}
	return nil
}

// SmokeScenario is the CI smoke preset: a 50k-client zipfian storm over a
// 3-phase shifting distribution with bursty arrivals, abandonment, a lossy
// retry-storm fault mix on every shard, and one shard killed and restarted
// mid-run.
func SmokeScenario(seed uint64) Scenario {
	return Scenario{
		Name: "smoke", Seed: seed,
		Clients: 50_000, Mechanism: "oue", Domain: 64, Epsilon: 1.0,
		ZipfS:  1.1,
		Phases: 3, ShiftPerPhase: 7, Arrivals: []float64{1, 4, 1},
		AbandonRate: 0.02, RetryStorm: true,
		Workers: 8, Batch: 2048,
		Schedule: []chaos.Event{
			// A lossy mix everywhere from the start: dropped requests, lost
			// responses, a little injected latency.
			{At: 0, Shard: -1, Kind: chaos.EventSetPlan, Plan: StormPlan()},
			// Kill shard 0 a third of the way in; bring it back at 60%.
			{At: 0.33, Shard: 0, Kind: chaos.EventKill},
			{At: 0.60, Shard: 0, Kind: chaos.EventRestart},
			// Drain shard 1 briefly around the burst — routing must shed it.
			{At: 0.45, Shard: 1, Kind: chaos.EventDrain},
			{At: 0.70, Shard: 1, Kind: chaos.EventUndrain},
			// Heal everything before the settle phase.
			{At: 0.95, Shard: -1, Kind: chaos.EventHeal},
		},
	}
}

// SoakScenario is the soak-tier preset: a 100k-client storm, same adversarial
// shape as the smoke run.
func SoakScenario(seed uint64) Scenario {
	s := SmokeScenario(seed)
	s.Name = "soak"
	s.Clients = 100_000
	return s
}

// StormPlan is the sustained lossy fault mix scenarios apply shard-wide:
// ~2% of requests dropped before the backend, ~3% absorbed with the response
// lost (the idempotency ambiguity), ~2% opening a short 503 burst.
func StormPlan() chaos.Plan {
	return chaos.Plan{DropBefore: 0.02, DropAfter: 0.03, Unavailable: 0.02, BurstLen: 3}
}

// Mechanism bundles what the generator needs from one mechanism: the
// randomizer clients report through, the aggregator the deployment absorbs
// under, and the closed-form acceptance envelope (the same 6σ·1.5 bounds the
// statistical acceptance tests enforce).
type Mechanism struct {
	Name string
	Rz   ldp.Randomizer
	Agg  ldp.Aggregator
	// strategy is set for the strategy-matrix mechanism, whose envelope is
	// Theorem 3.4's data-dependent expected error rather than a per-user
	// variance constant.
	strategy *ldp.Strategy
	oracle   ldp.FrequencyOracle
}

// Envelope returns the statistical-acceptance bounds for an estimate over
// users reports of ground truth x: the per-cell absolute bound (6σ with the
// 1.5 variance slack) and the total-squared-error bound (4× the closed-form
// expectation) — the same constants the repo's acceptance tests pin.
func (m *Mechanism) Envelope(x []float64, users float64) (cellBound, tseBound float64, err error) {
	const zSigma, varSlack, tseSlack = 6.0, 1.5, 4.0
	if m.oracle != nil {
		perCell := users * m.oracle.VariancePerUser() * varSlack
		return zSigma * math.Sqrt(perCell), tseSlack * float64(m.Agg.Domain()) * perCell, nil
	}
	w := ldp.Histogram(m.Agg.Domain())
	vp, err := m.strategy.Variances(w.Gram(), w.Queries())
	if err != nil {
		return 0, 0, fmt.Errorf("loadgen: strategy envelope: %w", err)
	}
	tse := vp.OnData(x)
	return zSigma * math.Sqrt(tse), tseSlack * tse, nil
}

// BuildMechanism constructs the named mechanism at (n, eps). "strategy" is
// the ε-parameterized randomized-response strategy matrix — deterministic to
// build (no optimizer run), but exercising the full strategy aggregation and
// Theorem 3.4 envelope path.
func BuildMechanism(name string, n int, eps float64) (*Mechanism, error) {
	switch name {
	case "strategy":
		s := baselines.RandomizedResponse(n, eps).Strategy()
		rz, err := ldp.NewRandomizer(s)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		agg, err := ldp.NewAggregator(s)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		return &Mechanism{Name: name, Rz: rz, Agg: agg, strategy: s}, nil
	case "oue", "olh", "rappor":
		o, err := ldp.OracleByName(strings.ToUpper(name), n, eps)
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		return &Mechanism{Name: name, Rz: o, Agg: o, oracle: o}, nil
	}
	return nil, fmt.Errorf("loadgen: unknown mechanism %q (want oue, olh, rappor, or strategy)", name)
}
