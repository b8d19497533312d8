package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/linalg"
	"repro/internal/opt"
	"repro/internal/workload"
)

func workspaceFixture(t *testing.T, n int) (q, gram *linalg.Matrix) {
	t.Helper()
	m := 4 * n
	rng := rand.New(rand.NewSource(21))
	gram = workload.NewPrefix(n).Gram()
	z := linalg.Constant(m, 0.7/float64(m))
	r := linalg.New(m, n)
	for i := range r.Data() {
		r.Data()[i] = rng.Float64()
	}
	proj, err := opt.ProjectMatrix(r, z, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return proj.Q, gram
}

// objectiveGrad evaluates L(Q) and its gradient on a fresh workspace: the one
// way the tests that check the formula itself (finite differences, the
// reference form, the uniform prior) reach the code run executes.
func objectiveGrad(q, gram *linalg.Matrix, prior []float64) (float64, *linalg.Matrix, error) {
	grad := linalg.New(q.Rows(), q.Cols())
	obj, err := NewWorkspace(q.Rows(), q.Cols()).ObjectiveGrad(q, gram, prior, grad)
	return obj, grad, err
}

func TestWorkspaceShapeMismatch(t *testing.T) {
	q, gram := workspaceFixture(t, 8)
	ws := NewWorkspace(q.Rows()+1, q.Cols())
	grad := linalg.New(q.Rows(), q.Cols())
	if _, err := ws.ObjectiveGrad(q, gram, nil, grad); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// TestWorkspaceSteadyStateAllocFree pins the tentpole property: after warmup,
// objective+gradient evaluation allocates nothing (measured at GOMAXPROCS=1
// where no fan-out goroutines are spawned).
func TestWorkspaceSteadyStateAllocFree(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	q, gram := workspaceFixture(t, 32)
	ws := NewWorkspace(q.Rows(), q.Cols())
	grad := linalg.New(q.Rows(), q.Cols())
	if _, err := ws.ObjectiveGrad(q, gram, nil, grad); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ws.ObjectiveGrad(q, gram, nil, grad); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state ObjectiveGrad allocates %v times per call", allocs)
	}
}

// TestOptimizeUnderParallelKernels runs a full optimization at an elevated
// GOMAXPROCS so the goroutine-parallel kernels actually fan out, and checks
// the result matches the serial run bit-for-bit (the kernels promise
// split-independent accumulation order), with either addMul4 body underneath.
func TestOptimizeUnderParallelKernels(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, c := range []struct {
			w     workload.Workload
			procs int
		}{
			{workload.NewPrefix(16), 4},
			// n = 37, m = 148 at three workers: row, column and triangle blocks
			// of uneven size, none a multiple of the kernels' four-k groups.
			{workload.NewPrefix(37), 3},
			// Large enough for the triangle kernel itself to fan out.
			{workload.NewAllRange(48), 3},
		} {
			run := func(procs int) *Result {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				res, err := Optimize(c.w, 1.0, Options{Iters: 60, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := run(1)
			parallel := run(c.procs)
			name := fmt.Sprintf("%s n=%d at %d procs", c.w.Name(), c.w.Domain(), c.procs)
			if serial.Objective != parallel.Objective {
				t.Fatalf("%s: objective differs across GOMAXPROCS: %v vs %v", name, serial.Objective, parallel.Objective)
			}
			if !linalg.ApproxEqual(serial.Strategy.Q, parallel.Strategy.Q, 0) {
				t.Fatalf("%s: optimized strategy differs across GOMAXPROCS", name)
			}
			if len(serial.History) != len(parallel.History) {
				t.Fatalf("%s: history lengths differ: %d vs %d", name, len(serial.History), len(parallel.History))
			}
			for i := range serial.History {
				if serial.History[i] != parallel.History[i] {
					t.Fatalf("%s: history[%d] differs: %v vs %v", name, i, serial.History[i], parallel.History[i])
				}
			}
		}
	})
}
