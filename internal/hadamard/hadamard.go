// Package hadamard provides Sylvester–Hadamard matrices and the fast
// Walsh–Hadamard transform. It is the shared substrate of the Hadamard
// response baseline [2] (whose strategy matrix is defined through H's sign
// pattern) and the Parity workload (whose query matrix *is* H).
package hadamard

import (
	"fmt"
	"math/bits"

	"repro/internal/linalg"
)

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Sign returns the (i, j) entry of the Sylvester–Hadamard matrix:
// (−1)^{⟨i,j⟩} where ⟨i,j⟩ is the parity of the AND of the binary indices.
// Valid for any non-negative i, j (the infinite Sylvester pattern).
func Sign(i, j int) int {
	if bits.OnesCount(uint(i&j))%2 == 0 {
		return 1
	}
	return -1
}

// Matrix returns the k×k Sylvester–Hadamard matrix H with H_{ij} = Sign(i,j).
// k must be a power of two.
func Matrix(k int) (*linalg.Matrix, error) {
	if k <= 0 || k&(k-1) != 0 {
		return nil, fmt.Errorf("hadamard: size %d is not a power of two", k)
	}
	h := linalg.New(k, k)
	for i := 0; i < k; i++ {
		row := h.Row(i)
		for j := 0; j < k; j++ {
			row[j] = float64(Sign(i, j))
		}
	}
	return h, nil
}

// FWHT applies the fast Walsh–Hadamard transform in place: x ← H·x in
// O(n log n). len(x) must be a power of two.
func FWHT(x []float64) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("hadamard: FWHT length %d is not a power of two", n)
	}
	for h := 1; h < n; h *= 2 {
		for i := 0; i < n; i += 2 * h {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
	return nil
}
