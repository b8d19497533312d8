package linalg

// useAVX2 selects addMul4's vector body. It is decided once, from what the
// processor and the operating system report, and never from the caller: the
// two bodies produce the same bits, so there is nothing to choose. Tests set
// it to false to run the Go loop on a machine that has the vector unit.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether 256-bit AVX2 instructions may be executed: the
// CPU has AVX and AVX2, and the OS saves the XMM and YMM state across context
// switches (OSXSAVE set and XCR0 bits 1 and 2 on) — without the latter the
// instructions fault however capable the silicon is.
func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// addMul4AVX2 is addMul4's loop over n ≥ 1 entries in AVX2 (addmul_amd64.s):
// separate multiplies and adds in the Go loop's order, so the same roundings.
//
//go:noescape
func addMul4AVX2(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)
