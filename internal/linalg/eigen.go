package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SymEigen computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns the eigenvalues in descending order and a
// matrix whose columns are the corresponding orthonormal eigenvectors, so that
// A = V Diag(vals) Vᵀ.
//
// Jacobi is O(n^3) per sweep and typically converges in 6–12 sweeps; it is
// slower than tridiagonalization+QL but unconditionally robust, backward
// stable, and simple — appropriate for the n ≤ a-few-thousand problems here.
func SymEigen(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.rows != a.cols {
		return nil, nil, fmt.Errorf("linalg: SymEigen of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	w := a.Clone().Symmetrize()
	v := Identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		scale := w.MaxAbs()
		if scale == 0 || math.Sqrt(off) <= 1e-14*float64(n)*scale {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Threshold: skip negligible rotations.
				if math.Abs(apq) <= 1e-18*(math.Abs(app)+math.Abs(aqq)) {
					w.Set(p, q, 0)
					w.Set(q, p, 0)
					continue
				}
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				tau := s / (1 + c)

				w.Set(p, p, app-t*apq)
				w.Set(q, q, aqq+t*apq)
				w.Set(p, q, 0)
				w.Set(q, p, 0)
				for k := 0; k < n; k++ {
					if k != p && k != q {
						akp := w.At(k, p)
						akq := w.At(k, q)
						w.Set(k, p, akp-s*(akq+tau*akp))
						w.Set(p, k, w.At(k, p))
						w.Set(k, q, akq+s*(akp-tau*akq))
						w.Set(q, k, w.At(k, q))
					}
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, vkp-s*(vkq+tau*vkp))
					v.Set(k, q, vkq+s*(vkp-tau*vkq))
				}
			}
		}
	}

	vals = w.DiagOf()
	// Sort eigenpairs in descending eigenvalue order.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sorted := make([]float64, n)
	vecs = New(n, n)
	for newj, oldj := range idx {
		sorted[newj] = vals[oldj]
		for i := 0; i < n; i++ {
			vecs.Set(i, newj, v.At(i, oldj))
		}
	}
	return sorted, vecs, nil
}

// PinvPSD returns the Moore–Penrose pseudo-inverse of a symmetric positive
// semidefinite matrix, computed from its eigendecomposition. Eigenvalues below
// rcond * max eigenvalue are treated as zero.
func PinvPSD(a *Matrix, rcond float64) (*Matrix, error) {
	vals, vecs, err := SymEigen(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	maxEig := 0.0
	for _, v := range vals {
		if v > maxEig {
			maxEig = v
		}
	}
	tol := rcond * maxEig
	inv := make([]float64, n)
	for i, v := range vals {
		if v > tol {
			inv[i] = 1 / v
		}
	}
	// pinv = V Diag(inv) Vᵀ
	scaled := vecs.Clone().ScaleCols(inv)
	return MulABt(scaled, vecs), nil
}

// SingularValuesFromGram returns singular values given a precomputed Gram
// matrix WᵀW (or WWᵀ). This supports implicit workloads whose Gram matrix has
// a closed form but whose explicit form is huge.
func SingularValuesFromGram(gram *Matrix) ([]float64, error) {
	vals, _, err := SymEigen(gram)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v < 0 {
			v = 0
		}
		out[i] = math.Sqrt(v)
	}
	return out, nil
}

// NuclearNormFromGram returns Σ singular values given the Gram matrix.
func NuclearNormFromGram(gram *Matrix) (float64, error) {
	sv, err := SingularValuesFromGram(gram)
	if err != nil {
		return 0, err
	}
	return Sum(sv), nil
}
