#include "textflag.h"

// func addMul4AVX2(d, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
//
// d[j] = ((((d[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]) for j < n,
// four j per pass in 256-bit lanes, then the 0–3 left over one at a time in
// the low lane. Multiply and add are separate instructions, in that order:
// each lane rounds exactly where the Go loop rounds. A fused multiply-add
// here would skip the product's rounding and move every strategy's bits.
TEXT ·addMul4AVX2(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), DX
	MOVQ b2+24(FP), CX
	MOVQ b3+32(FP), R8
	MOVQ n+40(FP), R9
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ AX, AX // byte offset of j
	SUBQ $4, R9
	JLT  tail

loop4:
	VMOVUPD (DI)(AX*1), Y4
	VMULPD  (SI)(AX*1), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (DX)(AX*1), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (CX)(AX*1), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R8)(AX*1), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, R9
	JGE     loop4

tail:
	ADDQ $4, R9
	JEQ  done

loop1:
	VMOVSD (DI)(AX*1), X4
	VMULSD (SI)(AX*1), X0, X5
	VADDSD X5, X4, X4
	VMULSD (DX)(AX*1), X1, X5
	VADDSD X5, X4, X4
	VMULSD (CX)(AX*1), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R8)(AX*1), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   R9
	JNE    loop1

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
