package linalg

import "math"

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// AxpyVec computes y += a*x in place.
func AxpyVec(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AxpyVec length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// ScaleVec multiplies x by a in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// CloneVec returns a copy of x.
func CloneVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Constant returns a vector of n copies of v.
func Constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// ClipScalar clips each x[i] into [lo, hi] in place.
func ClipScalar(x []float64, lo, hi float64) {
	for i := range x {
		if x[i] < lo {
			x[i] = lo
		} else if x[i] > hi {
			x[i] = hi
		}
	}
}

// MaxVec returns the maximum element of a non-empty vector.
func MaxVec(x []float64) float64 {
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// MinVec returns the minimum element of a non-empty vector.
func MinVec(x []float64) float64 {
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
