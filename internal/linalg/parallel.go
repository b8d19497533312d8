package linalg

import (
	"math"
	"runtime"
	"sync"
)

// parallelMinFlops is the approximate work (floating-point operations) below
// which a kernel runs serially: fanning goroutines out costs a few
// microseconds, so small products are faster single-threaded.
const parallelMinFlops = 1 << 17

// MaxWorkers returns the fan-out width parallel kernels use: one worker per
// available CPU (runtime.GOMAXPROCS). Callers that keep per-worker scratch
// (e.g. opt.Scratch) size it with this.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// ShouldParallel reports whether a kernel over n independent units of the
// given total cost will fan out. Callers with allocation-free serial paths
// check it first and only build the fan-out closure when it returns true
// (constructing a capturing closure heap-allocates, which the serial hot
// path must avoid).
func ShouldParallel(n, cost int) bool {
	return n > 1 && cost >= parallelMinFlops && MaxWorkers() > 1
}

// ParallelRange splits [0, n) into at most MaxWorkers contiguous blocks and
// invokes fn(worker, lo, hi) for each, concurrently when cost (an approximate
// flop count for the whole range) is large enough to amortize the fan-out.
// Block 0 runs on the calling goroutine and only the rest are spawned, so a
// fan-out at GOMAXPROCS=2 launches (and wakes) one goroutine, not two.
// Worker indices are dense in [0, MaxWorkers()), so fn may index per-worker
// scratch with them; each index is in flight at most once per call (the
// caller is worker 0).
//
// fn must only write state disjoint across blocks. Block boundaries depend on
// GOMAXPROCS, so bit-reproducible callers must make each element's result
// independent of the split (all kernels in this package accumulate each
// output element in a fixed order, making them bit-identical to their serial
// counterparts at any worker count).
func ParallelRange(n, cost int, fn func(worker, lo, hi int)) {
	if !ShouldParallel(n, cost) {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	workers := min(MaxWorkers(), n)
	chunk := (n + workers - 1) / workers
	fanOut(workers, func(k int) int { return min(k*chunk, n) }, fn)
}

// fanOut runs fn(k, bound(k), bound(k+1)) for every non-empty block
// k ∈ [0, blocks): block 0 on the calling goroutine, the others on goroutines
// of their own, returning when all are done. bound must be nondecreasing.
func fanOut(blocks int, bound func(k int) int, fn func(worker, lo, hi int)) {
	var wg sync.WaitGroup
	for k := 1; k < blocks; k++ {
		lo, hi := bound(k), bound(k+1)
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k, lo, hi)
		}()
	}
	if lo, hi := bound(0), bound(1); lo < hi {
		fn(0, lo, hi)
	}
	wg.Wait()
}

// triangleBound is the first row of block k when the n rows of a lower
// triangle (row i costs i+1) are cut into blocks of equal area: n·√(k/blocks).
func triangleBound(n, k, blocks int) int {
	return int(math.Round(float64(n) * math.Sqrt(float64(k)/float64(blocks))))
}

// addMul1 performs d[j] += a·b[j] over len(d) entries of b, skipping the
// pass when a is zero (workload matrices are banded 0/1).
func addMul1(d, b []float64, a float64) {
	if a == 0 {
		return
	}
	b = b[:len(d)]
	for j := range d {
		d[j] += a * b[j]
	}
}

// addMul4 is four successive addMul1 passes in one: the products are added
// to d[j] left to right in a single expression, which is the very sequence of
// roundings the four passes perform, but d is loaded and stored once instead
// of four times (the one-k loop is store-bound). Do not pair the terms or
// keep partial sums — that changes the rounding. A group with a zero
// coefficient takes the four passes themselves, so the zero is skipped, not
// multiplied: every kernel built on addMul4 is bit-identical to its
// one-k-per-pass form for any input, and banded matrices keep their skip.
// The b slices may run past len(d); re-slicing them here is what lets the
// compiler drop the bounds checks from the loop (and what bounds the vector
// body, which takes pointers and one length).
//
// On an amd64 machine with AVX2 a row of at least one vector goes to
// addMul4AVX2, which is this loop four j at a time: separate multiply and add
// instructions in the same order — never a fused multiply-add, which rounds
// once where this expression rounds twice — so which body ran is not
// observable in the result.
func addMul4(d, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
		addMul1(d, b0, a0)
		addMul1(d, b1, a1)
		addMul1(d, b2, a2)
		addMul1(d, b3, a3)
		return
	}
	b0, b1, b2, b3 = b0[:len(d)], b1[:len(d)], b2[:len(d)], b3[:len(d)]
	if useAVX2 && len(d) >= 4 {
		addMul4AVX2(&d[0], &b0[0], &b1[0], &b2[0], &b3[0], len(d), a0, a1, a2, a3)
		return
	}
	for j := range d {
		d[j] = d[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// Kernel names the body addMul4 runs on this machine, "avx2" or "go". The
// results do not depend on it; the timings do, so build reports carry it.
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// mulToRows computes rows [lo, hi) of dst = a*b with the cache-friendly ikj
// loop, four k's per pass over the dst row. Each dst element accumulates over
// k in ascending order, so any row partition yields bit-identical results.
func mulToRows(dst, a, b *Matrix, lo, hi int) {
	n := b.cols
	bd := b.data
	clear(dst.data[lo*n : hi*n])
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		d := dst.Row(i)
		k := 0
		for ; k+4 <= len(arow); k += 4 {
			addMul4(d, bd[k*n:], bd[(k+1)*n:], bd[(k+2)*n:], bd[(k+3)*n:],
				arow[k], arow[k+1], arow[k+2], arow[k+3])
		}
		for ; k < len(arow); k++ {
			addMul1(d, bd[k*n:], arow[k])
		}
	}
}

// mulAtBToRows computes rows [lo, hi) of dst = aᵀ*b (row i of dst is column i
// of a against b) — or, with lower set, only their entries on and below the
// diagonal, leaving the rest of each row zero. The k loop is outermost, four
// k's per pass, so a and b stream row-major; each dst element still
// accumulates over k in ascending order, the same sums with lower set or not.
func mulAtBToRows(dst, a, b *Matrix, lo, hi int, lower bool) {
	n := b.cols
	ad, bd, ac := a.data, b.data, a.cols
	clear(dst.data[lo*n : hi*n])
	width := n
	k := 0
	for ; k+4 <= a.rows; k += 4 {
		a0, a1, a2, a3 := ad[k*ac:], ad[(k+1)*ac:], ad[(k+2)*ac:], ad[(k+3)*ac:]
		b0, b1, b2, b3 := bd[k*n:], bd[(k+1)*n:], bd[(k+2)*n:], bd[(k+3)*n:]
		for i := lo; i < hi; i++ {
			if lower {
				width = i + 1
			}
			addMul4(dst.data[i*n:i*n+width], b0, b1, b2, b3, a0[i], a1[i], a2[i], a3[i])
		}
	}
	for ; k < a.rows; k++ {
		arow, brow := ad[k*ac:], bd[k*n:]
		for i := lo; i < hi; i++ {
			if lower {
				width = i + 1
			}
			addMul1(dst.data[i*n:i*n+width], brow, arow[i])
		}
	}
}

// mulABtToRows computes rows [lo, hi) of dst = a*bᵀ.
func mulABtToRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}
