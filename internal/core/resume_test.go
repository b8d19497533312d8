package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/linalg"
	"repro/internal/workload"
)

// step is one OnIteration callback.
type step struct {
	t   int
	obj float64
}

// observed returns options that record every callback into *steps.
func observed(o Options, steps *[]step) Options {
	o.OnIteration = func(t int, obj float64) { *steps = append(*steps, step{t, obj}) }
	return o
}

// restarted is OptimizeGram with the main run forced to start over from the
// winning step — the path a call takes when its winner cannot be resumed.
// It also reports whether OptimizeGram itself resumes for these options, so
// that a comparison with it is never vacuous.
func restarted(t *testing.T, gram *linalg.Matrix, eps float64, options Options) (res *Result, resumes bool) {
	t.Helper()
	n := gram.Rows()
	o := options.withDefaults(n)
	m := o.Outputs
	if o.Init != nil {
		m = o.Init.Outputs()
	}
	ws := NewWorkspace(m, n)
	beta, winner, err := searchStepSize(gram, eps, o, ws)
	if err != nil {
		t.Fatal(err)
	}
	d, err := start(gram, eps, o, beta, ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.advance(o.Iters); err != nil {
		t.Fatal(err)
	}
	return d.result(), winner.resumable(o.Iters)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestResumeEqualsRestart: the main run that resumes the winning pilot
// returns what restarting from the winner's step returns — every Result
// field, to the bit — and its observer sees the same stream, for default
// options, a prior and a warm start, serial and fanned out.
func TestResumeEqualsRestart(t *testing.T) {
	prior := make([]float64, 16)
	for u := range prior {
		prior[u] = 1 + float64(u%3)
	}
	cases := []struct {
		name string
		w    workload.Workload
		o    Options
	}{
		{"Prefix(16)", workload.NewPrefix(16), Options{Iters: 100, Seed: 1}},
		{"AllRange(12)", workload.NewAllRange(12), Options{Iters: 120, Seed: 1}},
		{"Prefix(16) prior", workload.NewPrefix(16), Options{Iters: 100, Seed: 3, Prior: prior}},
		// Most warm starts halve β in their pilots and restart; this one
		// does not.
		{"Prefix(16) warm start", workload.NewPrefix(16),
			Options{Iters: 60, Seed: 1, Init: baselines.HadamardResponse(16, 1.0).Strategy()}},
	}
	for _, procs := range []int{1, 2} {
		old := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			name := fmt.Sprintf("%s at GOMAXPROCS %d", c.name, procs)
			gram := c.w.Gram()
			var resumedSteps, restartSteps []step
			resumed, err := OptimizeGram(gram, 1.0, observed(c.o, &resumedSteps))
			if err != nil {
				t.Fatal(err)
			}
			restart, resumes := restarted(t, gram, 1.0, observed(c.o, &restartSteps))
			if !resumes {
				t.Fatalf("%s: the main run restarts, so this case compares nothing", name)
			}
			if !sameBits(resumed.Strategy.Q.Data(), restart.Strategy.Q.Data()) || resumed.Strategy.Eps != restart.Strategy.Eps {
				t.Errorf("%s: strategies differ", name)
			}
			if math.Float64bits(resumed.Objective) != math.Float64bits(restart.Objective) {
				t.Errorf("%s: objective %v, restart %v", name, resumed.Objective, restart.Objective)
			}
			if !sameBits(resumed.History, restart.History) {
				t.Errorf("%s: histories differ", name)
			}
			if resumed.Iters != restart.Iters {
				t.Errorf("%s: %d iterations, restart %d", name, resumed.Iters, restart.Iters)
			}
			if math.Float64bits(resumed.StepSize) != math.Float64bits(restart.StepSize) {
				t.Errorf("%s: step size %v, restart %v", name, resumed.StepSize, restart.StepSize)
			}
			if !sameBits(resumed.PriorWeights, restart.PriorWeights) {
				t.Errorf("%s: prior weights differ", name)
			}
			if fmt.Sprint(resumedSteps) != fmt.Sprint(restartSteps) {
				t.Errorf("%s: callback streams differ:\nresumed %v\nrestart %v", name, resumedSteps, restartSteps)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestOnIterationSeesEachIterationOnce pins the observer contract on both
// sides of the resume threshold and on a fixed step: t = 0 … Iters−1, each
// once, in order, each with the objective History records for it.
func TestOnIterationSeesEachIterationOnce(t *testing.T) {
	gram := workload.NewPrefix(16).Gram()
	// The fixed step is half what the search picks here, small enough that
	// no step blows up (a blown-up step is an iteration with no callback).
	runs := []Options{{Iters: 60, Seed: 2, StepSize: 1e-6}}
	for _, iters := range []int{1, 39, 40, 41, 100} {
		runs = append(runs, Options{Iters: iters, Seed: 1})
	}
	for _, o := range runs {
		var steps []step
		res, err := OptimizeGram(gram, 1.0, observed(o, &steps))
		if err != nil {
			t.Fatal(err)
		}
		if res.Iters != o.Iters || len(steps) != o.Iters {
			t.Fatalf("Iters %d, step %g: %d iterations, %d callbacks", o.Iters, o.StepSize, res.Iters, len(steps))
		}
		for i, s := range steps {
			if s.t != i || math.Float64bits(s.obj) != math.Float64bits(res.History[i+1]) {
				t.Fatalf("Iters %d, step %g: callback %d is (%d, %v), want (%d, History[%d] = %v)",
					o.Iters, o.StepSize, i, s.t, s.obj, i, i+1, res.History[i+1])
			}
		}
	}
}

// TestCancelDuringReplay: a cancel from inside a replayed callback ends the
// call with context.Canceled before the next callback, as it does inside the
// loop.
func TestCancelDuringReplay(t *testing.T) {
	gram := workload.NewPrefix(16).Gram()
	o := Options{Iters: 100, Seed: 1}
	if _, resumes := restarted(t, gram, 1.0, o); !resumes {
		t.Fatal("the main run restarts, so no callback is replayed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	o.Ctx = ctx
	o.OnIteration = func(t int, _ float64) {
		calls++
		if t == 5 {
			cancel()
		}
	}
	if _, err := OptimizeGram(gram, 1.0, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 6 {
		t.Fatalf("%d callbacks, want 6: the cancel at t = 5 must stop the replay", calls)
	}
}
