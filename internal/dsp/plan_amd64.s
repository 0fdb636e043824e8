// The radix-2 butterfly kernel for amd64. See plan_amd64.go for the
// dispatch and plan.go (butterfliesGeneric) for the reference loop that
// it reproduces bit for bit.
//
// Each butterfly computes t = b*w, then a+t and a-t. The complex product
// is formed from two VMULPDs and one VADDSUBPD: [br*wr, bi*wr] and
// [bi*wi, br*wi] combine to [br*wr - bi*wi, bi*wr + br*wi]. Go's scalar
// complex multiply rounds the same products and the same difference and
// sum (addition is commutative), and no FMA is used, so every output bit
// matches the pure-Go loop.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// CMUL sets t = b*w for two complex128 values per YMM register, with the
// real parts of w duplicated in wr and the imaginary parts in wi. s is
// scratch.
#define CMUL(b, wr, wi, t, s) \
	VPERMILPD $5, b, s; \
	VMULPD    wr, b, t; \
	VMULPD    wi, s, s; \
	VADDSUBPD s, t, t

// SPLITW loads two twiddles from addr and splits them into duplicated real
// parts (wr) and duplicated imaginary parts (wi).
#define SPLITW(addr, wr, wi) \
	VMOVUPD   addr, wi; \
	VMOVDDUP  wi, wr; \
	VPERMILPD $15, wi, wi

// func butterfliesAVX(x, tw []complex128)
//
// Two butterflies per YMM operation, and two stages per pass over x: the
// stages of half-sizes h and 2h touch the same four elements k, k+h, k+2h
// and k+3h of each 4h-block, so they run back to back in registers. The
// first two stages (h = 1, 2) mix neighbouring elements and run together
// on four-element blocks with 128-bit lane moves. Every butterfly still
// reads the operands and twiddle the stage-by-stage loop gives it.
//
// Registers: DI x, R10 end of x, CX tw, R8 h in bytes (H), AX 2H, BX 3H,
// SI and R12 the tables of the pass's two stages, DX = R12+H, R9 the
// current block, R11 the byte offset k inside the block, R13 = R9+R11.
TEXT ·butterfliesAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), R10
	MOVQ tw_base+24(FP), CX
	SHLQ $4, R10
	CMPQ R10, $32
	JB   avxdone // n < 2
	ADDQ DI, R10
	LEAQ 32(DI), R13
	CMPQ R13, R10
	JE   avxtwo

	// Stages 1 and 2 over blocks [x0 x1 x2 x3].
	VBROADCASTF128 (CX), Y0 // [tw[0], tw[0]]
	VMOVDDUP       Y0, Y1
	VPERMILPD      $15, Y0, Y2
	SPLITW(16(CX), Y3, Y4)  // [tw[1], tw[2]]
	MOVQ           DI, R9

avxquads:
	VMOVUPD    (R9), Y5
	VMOVUPD    32(R9), Y6
	VPERM2F128 $0x20, Y6, Y5, Y7 // [x0, x2]
	VPERM2F128 $0x31, Y6, Y5, Y8 // [x1, x3]
	CMUL(Y8, Y1, Y2, Y9, Y10)
	VADDPD     Y9, Y7, Y5        // [y0, y2]
	VSUBPD     Y9, Y7, Y6        // [y1, y3]
	VPERM2F128 $0x20, Y6, Y5, Y7 // [y0, y1]
	VPERM2F128 $0x31, Y6, Y5, Y8 // [y2, y3]
	CMUL(Y8, Y3, Y4, Y9, Y10)
	VADDPD     Y9, Y7, Y5        // [z0, z1]
	VSUBPD     Y9, Y7, Y6        // [z2, z3]
	VMOVUPD    Y5, (R9)
	VMOVUPD    Y6, 32(R9)
	ADDQ       $64, R9
	CMPQ       R9, R10
	JB         avxquads
	MOVQ       $64, R8

	// Two stages per pass while at least two remain (4h <= n).
avxpairs:
	LEAQ (DI)(R8*4), R13
	CMPQ R13, R10
	JA   avxsingle
	LEAQ (R8)(R8*1), AX
	LEAQ (AX)(R8*1), BX
	LEAQ -16(CX)(R8*1), SI // stage h: entries h-1 ..
	LEAQ (SI)(R8*1), R12   // stage 2h: entries 2h-1 ..
	LEAQ (R12)(R8*1), DX
	MOVQ DI, R9

avxpblocks:
	XORQ R11, R11

avxpbfly:
	LEAQ    (R9)(R11*1), R13
	SPLITW((SI)(R11*1), Y0, Y1)
	VMOVUPD (R13)(R8*1), Y2 // x1
	CMUL(Y2, Y0, Y1, Y3, Y4)
	VMOVUPD (R13), Y2       // x0
	VADDPD  Y3, Y2, Y5      // y0
	VSUBPD  Y3, Y2, Y6      // y1
	VMOVUPD (R13)(BX*1), Y2 // x3
	CMUL(Y2, Y0, Y1, Y3, Y4)
	VMOVUPD (R13)(AX*1), Y2 // x2
	VADDPD  Y3, Y2, Y7      // y2
	VSUBPD  Y3, Y2, Y8      // y3
	SPLITW((R12)(R11*1), Y0, Y1)
	CMUL(Y7, Y0, Y1, Y3, Y4)
	VADDPD  Y3, Y5, Y9
	VSUBPD  Y3, Y5, Y10
	VMOVUPD Y9, (R13)
	VMOVUPD Y10, (R13)(AX*1)
	SPLITW((DX)(R11*1), Y0, Y1)
	CMUL(Y8, Y0, Y1, Y3, Y4)
	VADDPD  Y3, Y6, Y9
	VSUBPD  Y3, Y6, Y10
	VMOVUPD Y9, (R13)(R8*1)
	VMOVUPD Y10, (R13)(BX*1)
	ADDQ    $32, R11
	CMPQ    R11, R8
	JB      avxpbfly

	LEAQ (R9)(AX*2), R9
	CMPQ R9, R10
	JB   avxpblocks
	SHLQ $2, R8
	JMP  avxpairs

	// At most one stage is left.
avxsingle:
	LEAQ (DI)(R8*1), R13
	CMPQ R13, R10
	JAE  avxdone
	LEAQ -16(CX)(R8*1), SI
	MOVQ DI, R9

avxsblocks:
	XORQ R11, R11
	LEAQ (R9)(R8*1), R13

avxsbfly:
	SPLITW((SI)(R11*1), Y0, Y1)
	VMOVUPD (R13)(R11*1), Y2 // b
	CMUL(Y2, Y0, Y1, Y3, Y4)
	VMOVUPD (R9)(R11*1), Y2  // a
	VADDPD  Y3, Y2, Y5
	VSUBPD  Y3, Y2, Y6
	VMOVUPD Y5, (R9)(R11*1)
	VMOVUPD Y6, (R13)(R11*1)
	ADDQ    $32, R11
	CMPQ    R11, R8
	JB      avxsbfly

	LEAQ (R13)(R8*1), R9
	CMPQ R9, R10
	JB   avxsblocks
	JMP  avxdone

	// n == 2: one butterfly, in the low 128-bit lane.
avxtwo:
	VMOVUPD   (CX), X0
	VMOVDDUP  X0, X1
	VPERMILPD $3, X0, X2
	VMOVUPD   16(DI), X4
	VPERMILPD $1, X4, X5
	VMULPD    X1, X4, X4
	VMULPD    X2, X5, X5
	VADDSUBPD X5, X4, X4
	VMOVUPD   (DI), X3
	VADDPD    X4, X3, X6
	VSUBPD    X4, X3, X7
	VMOVUPD   X6, (DI)
	VMOVUPD   X7, 16(DI)

avxdone:
	VZEROUPPER
	RET
