//go:build !amd64

package linalg

// There is one vector kernel, amd64's; everywhere else addMul4 is its Go loop.
var useAVX2 = false

func addMul4AVX2(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64) {
	panic("linalg: no vector kernel on this architecture")
}
