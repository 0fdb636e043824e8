// Packed GEMM kernels, SSE2 and AVX. See gemm.go (packNT) for the interleaved
// weight layout and gemm_amd64.go for the contract. Each vector lane
// holds one output row's accumulator; (V)MULPD and (V)ADDPD keep the two
// roundings of the scalar reference (no FMA), so results are
// bit-identical to gemmNT.

#include "textflag.h"

// func gemmPacked16(out, x, w []float64)
TEXT ·gemmPacked16(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ w_base+48(FP), DX

	// Eight two-lane accumulators = 16 output rows.
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	TESTQ CX, CX
	JE    done

loop:
	// Broadcast x[c] into both lanes.
	MOVSD    (SI), X8
	UNPCKLPD X8, X8

	MOVUPD 0(DX), X9
	MULPD  X8, X9
	ADDPD  X9, X0
	MOVUPD 16(DX), X10
	MULPD  X8, X10
	ADDPD  X10, X1
	MOVUPD 32(DX), X11
	MULPD  X8, X11
	ADDPD  X11, X2
	MOVUPD 48(DX), X12
	MULPD  X8, X12
	ADDPD  X12, X3
	MOVUPD 64(DX), X13
	MULPD  X8, X13
	ADDPD  X13, X4
	MOVUPD 80(DX), X14
	MULPD  X8, X14
	ADDPD  X14, X5
	MOVUPD 96(DX), X15
	MULPD  X8, X15
	ADDPD  X15, X6
	MOVUPD 112(DX), X9
	MULPD  X8, X9
	ADDPD  X9, X7

	ADDQ $8, SI
	ADDQ $128, DX
	DECQ CX
	JNE  loop

done:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	RET

// func gemmPairsAVX(out, x, blk []float64, nblk int) int
//
// Two adjacent 16-lane blocks per pass: four YMM accumulators per block
// hold its 16 output rows, and one broadcast of x[c] feeds all eight.
// Each pass over a block keeps a dependent VADDPD per input value in only
// four registers, so the pair is what keeps the adders busy.
TEXT ·gemmPairsAVX(SB), NOSPLIT, $0-88
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ blk_base+48(FP), DX
	MOVQ nblk+72(FP), R8
	SHRQ $1, R8
	LEAQ (R8)(R8*1), AX
	MOVQ AX, ret+80(FP)
	MOVQ CX, R9
	SHLQ $7, R9 // bytes per block: 16 lanes of k values
	TESTQ R8, R8
	JE    done

pair:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R10
	MOVQ   DX, R11
	LEAQ   (DX)(R9*1), R12
	MOVQ   CX, BX
	TESTQ  BX, BX
	JE     store

loop:
	VBROADCASTSD (R10), Y8
	VMULPD       0(R11), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R11), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R11), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R11), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       0(R12), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       32(R12), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       64(R12), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       96(R12), Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $8, R10
	ADDQ         $128, R11
	ADDQ         $128, R12
	DECQ         BX
	JNE          loop

store:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	LEAQ    (DX)(R9*2), DX
	DECQ    R8
	JNE     pair

done:
	VZEROUPPER
	RET
