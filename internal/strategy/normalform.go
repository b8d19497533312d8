package strategy

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// NormalForm is what every formula of Sections 3 and 4 starts from, for one
// strategy Q and one weight vector p over user types (nil means p = 1, the
// paper's uniform average; a prior is footnote 2's D_p in place of D):
//
//	D_p = Diag(Q·p)
//	Qs  = D_p⁻¹Q                 (m×n)
//	M   = QᵀD_p⁻¹Q = QᵀQs        (n×n, symmetric positive semi-definite)
//	M   = LLᵀ                    (when M is positive definite)
//
// Theorem 3.10's B = M⁺Qsᵀ, Theorem 3.11's L(Q) = tr[M⁺G] and the optimizer's
// gradient −2·Qs·S + h with S = M⁻¹GM⁻¹ are read off these four, so this is the
// one place they are built: the reconstruction and the objective form a fresh
// one per call, the optimizer's Workspace embeds one and re-forms it every
// iteration. The zero value is ready to use, and Form allocates only when the
// shape of Q changed since the last call. Not safe for concurrent use.
type NormalForm struct {
	// Qs is D_p⁻¹Q, valid once Form has found every output with mass.
	Qs *linalg.Matrix
	// Chol is M's Cholesky factor, valid after a Form that returned nil.
	Chol linalg.Cholesky
	// MulM, when non-nil, forms M in place of linalg.MulAtBSymTo. Nothing but
	// core's TestSameArithmeticAsFullProduct sets it: that test puts the full
	// product + Symmetrize back to show every other kernel kept its bits.
	MulM func(dst, a, b *linalg.Matrix)

	dinv []float64      // D_p⁻¹'s diagonal
	m    *linalg.Matrix // M, mirrored from one triangle: exactly symmetric
}

// Form builds Qs, M and M's factor for q under weights (length n,
// non-negative; nil for the row sums). It reports weights it cannot use, an
// output no weighted user type ever produces (D_p singular: Trim drops such
// rows) and, wrapping linalg.ErrSingular, an M that is not numerically
// positive definite — after which Qs and M are still formed, for the callers
// that fall back to the pseudo-inverse.
func (f *NormalForm) Form(q *linalg.Matrix, weights []float64) error {
	m, n := q.Rows(), q.Cols()
	if f.Qs == nil || f.Qs.Rows() != m || f.Qs.Cols() != n {
		f.dinv = make([]float64, m)
		f.Qs = linalg.New(m, n)
		f.m = linalg.New(n, n)
	}
	if weights == nil {
		q.RowSumsTo(f.dinv)
	} else {
		if len(weights) != n {
			return fmt.Errorf("strategy: %d weights for domain %d", len(weights), n)
		}
		for u, w := range weights {
			if w < 0 || math.IsNaN(w) {
				return fmt.Errorf("strategy: weight %g for type %d is invalid", w, u)
			}
		}
		q.MulVecTo(f.dinv, weights)
	}
	for o, v := range f.dinv {
		if v <= 0 {
			return fmt.Errorf("strategy: output %d has zero mass", o)
		}
		f.dinv[o] = 1 / v
	}
	q.ScaleRowsTo(f.Qs, f.dinv)
	if f.MulM != nil {
		f.MulM(f.m, q, f.Qs)
	} else {
		linalg.MulAtBSymTo(f.m, q, f.Qs)
	}
	if err := f.Chol.Factor(f.m); err != nil {
		return fmt.Errorf("strategy: M = QᵀD⁻¹Q does not factor: %w", err)
	}
	return nil
}
