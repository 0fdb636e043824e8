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

// func forwardAVX(x, tw []complex128)
//
// forwardGeneric's stages: natural-order input, the spectrum left in the
// transforms' layout. Every group of entries shares one twiddle, which is
// broadcast once per group. The stages run two per pass over x while the
// second one pairs entries at least four apart (the first stage alone
// first when that leaves one over), and the last two, which pair entries
// 2 and 1 apart, run together in registers on blocks of four.
//
// Registers: DI x, R10 end of x, CX tw, R8 the pass's distance d in bytes,
// AX d/2, BX 3d/2, R12 the groups of its first stage in bytes (16 per
// group), SI and DX the twiddles of its two stages, R9 the current group,
// R11 the byte offset inside the group's first quarter, R13 = R9+R11.
TEXT ·forwardAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), R10
	MOVQ tw_base+24(FP), CX
	CMPQ R10, $2
	JB   fwddone
	JE   fwdtwo
	BSFQ R10, AX          // log2 n
	SHLQ $4, R10
	MOVQ R10, R8
	SHRQ $1, R8           // d = n/2 entries
	ADDQ DI, R10
	MOVQ $16, R12
	TESTQ $1, AX
	JZ   fwdpairs         // an even number of stages before the last two

	// The first stage alone: one group, twiddle tw[0].
	VBROADCASTSD (CX), Y0
	VBROADCASTSD 8(CX), Y1
	MOVQ         DI, R9
	LEAQ         (DI)(R8*1), R13

fwdsingle:
	VMOVUPD (R9)(R8*1), Y2
	CMUL(Y2, Y0, Y1, Y3, Y4)
	VMOVUPD (R9), Y2
	VADDPD  Y3, Y2, Y5
	VSUBPD  Y3, Y2, Y6
	VMOVUPD Y5, (R9)
	VMOVUPD Y6, (R9)(R8*1)
	ADDQ    $32, R9
	CMPQ    R9, R13
	JB      fwdsingle
	SHRQ    $1, R8
	SHLQ    $1, R12

fwdpairs:
	CMPQ R8, $128         // the second stage's distance d/2 >= 4 entries
	JB   fwdquads
	MOVQ R8, AX
	SHRQ $1, AX
	LEAQ (AX)(R8*1), BX
	LEAQ -16(CX)(R12*1), SI     // stage of h groups: entries h-1 ..
	LEAQ -16(CX)(R12*2), DX     // stage of 2h groups: entries 2h-1 ..
	MOVQ DI, R9

fwdgroup:
	VBROADCASTSD (SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD (DX), Y12
	VBROADCASTSD 8(DX), Y13
	VBROADCASTSD 16(DX), Y14
	VBROADCASTSD 24(DX), Y15
	XORQ         R11, R11

fwdbfly:
	LEAQ    (R9)(R11*1), R13
	VMOVUPD (R13)(R8*1), Y2 // x2
	CMUL(Y2, Y0, Y1, Y3, Y4)
	VMOVUPD (R13), Y2       // x0
	VADDPD  Y3, Y2, Y5      // y0
	VSUBPD  Y3, Y2, Y6      // y2
	VMOVUPD (R13)(BX*1), Y2 // x3
	CMUL(Y2, Y0, Y1, Y3, Y4)
	VMOVUPD (R13)(AX*1), Y2 // x1
	VADDPD  Y3, Y2, Y7      // y1
	VSUBPD  Y3, Y2, Y8      // y3
	CMUL(Y7, Y12, Y13, Y3, Y4)
	VADDPD  Y3, Y5, Y9
	VSUBPD  Y3, Y5, Y10
	VMOVUPD Y9, (R13)
	VMOVUPD Y10, (R13)(AX*1)
	CMUL(Y8, Y14, Y15, Y3, Y4)
	VADDPD  Y3, Y6, Y9
	VSUBPD  Y3, Y6, Y10
	VMOVUPD Y9, (R13)(R8*1)
	VMOVUPD Y10, (R13)(BX*1)
	ADDQ    $32, R11
	CMPQ    R11, AX
	JB      fwdbfly

	ADDQ $16, SI
	ADDQ $32, DX
	LEAQ (R9)(R8*2), R9
	CMPQ R9, R10
	JB   fwdgroup
	SHRQ $2, R8
	SHLQ $2, R12
	JMP  fwdpairs

	// The last two stages, on blocks [x0 x1 x2 x3]: x0, x2 and x1, x3
	// with the block's twiddle, then x0, x1 and x2, x3 with one each.
fwdquads:
	LEAQ -16(CX)(R12*1), SI
	LEAQ -16(CX)(R12*2), DX
	MOVQ DI, R9

fwdquad:
	VBROADCASTSD (SI), Y0
	VBROADCASTSD 8(SI), Y1
	VMOVUPD      (R9), Y5            // [x0, x1]
	VMOVUPD      32(R9), Y6          // [x2, x3]
	CMUL(Y6, Y0, Y1, Y9, Y10)
	VADDPD       Y9, Y5, Y7          // [y0, y1]
	VSUBPD       Y9, Y5, Y8          // [y2, y3]
	VPERM2F128   $0x20, Y8, Y7, Y5   // [y0, y2]
	VPERM2F128   $0x31, Y8, Y7, Y6   // [y1, y3]
	SPLITW((DX), Y3, Y4)
	CMUL(Y6, Y3, Y4, Y9, Y10)
	VADDPD       Y9, Y5, Y7          // [z0, z2]
	VSUBPD       Y9, Y5, Y8          // [z1, z3]
	VPERM2F128   $0x20, Y8, Y7, Y5   // [z0, z1]
	VPERM2F128   $0x31, Y8, Y7, Y6   // [z2, z3]
	VMOVUPD      Y5, (R9)
	VMOVUPD      Y6, 32(R9)
	ADDQ         $16, SI
	ADDQ         $32, DX
	ADDQ         $64, R9
	CMPQ         R9, R10
	JB           fwdquad
	JMP          fwddone

	// n == 2: the one butterfly of butterfliesAVX, whose table it shares.
fwdtwo:
	JMP ·butterfliesAVX(SB)

fwddone:
	VZEROUPPER
	RET

// The passes around the butterflies. Each reproduces its generic twin in
// plan.go bit for bit: the same IEEE operations on the same operands, in
// vector lanes instead of scalars, with no FMA. The pair passes walk each
// octave block [b, 2b) of the layout from both ends, four pairs i+t, j-t
// (t = 0..3, j = 2b-1-(i-b)) at a time. The pairs of even t hold bin k
// below h/2 at i+t and of odd t at j-t, so a vector of the bins k holds
// the lanes i, i+2, j-1, j-3 and one of their partners j, j-2, i+1, i+3;
// each splits into a vector of real parts and one of imaginary parts, and
// each scalar line of the Go loop becomes one vector operation. Go's
// complex products keep their ·0 terms (z·½ is [re·½ - im·0, re·0 +
// im·½]), which decide the sign of a zero result and turn ±Inf into NaN,
// so the kernels multiply by 0 too.

DATA half<>+0(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $8
DATA neghalf<>+0(SB)/8, $0xbfe0000000000000
GLOBL neghalf<>(SB), RODATA|NOPTR, $8
DATA signbit<>+0(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $8
DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8
DATA conjlo<>+0(SB)/8, $0
DATA conjlo<>+8(SB)/8, $0x8000000000000000
DATA conjlo<>+16(SB)/8, $0
DATA conjlo<>+24(SB)/8, $0
GLOBL conjlo<>(SB), RODATA|NOPTR, $32
DATA conjhi<>+0(SB)/8, $0
DATA conjhi<>+8(SB)/8, $0
DATA conjhi<>+16(SB)/8, $0
DATA conjhi<>+24(SB)/8, $0x8000000000000000
GLOBL conjhi<>(SB), RODATA|NOPTR, $32

// LOAD4 loads the complex values at a0, a1, a2, a3 into re and im, lanes
// a0, a2, a1, a3. x0/y0 and x1/y1 name two scratch registers.
#define LOAD4(a0, a1, a2, a3, re, im, x0, y0, x1, y1) \
	VMOVUPD     a0, x0; \
	VINSERTF128 $1, a1, y0, y0; \
	VMOVUPD     a2, x1; \
	VINSERTF128 $1, a3, y1, y1; \
	VUNPCKLPD   y1, y0, re; \
	VUNPCKHPD   y1, y0, im

// STORE4 is the inverse of LOAD4.
#define STORE4(re, im, a0, a1, a2, a3, x0, y0, x1, y1) \
	VUNPCKLPD    im, re, y0; \
	VUNPCKHPD    im, re, y1; \
	VMOVUPD      x0, a0; \
	VEXTRACTF128 $1, y0, a1; \
	VMOVUPD      x1, a2; \
	VEXTRACTF128 $1, y1, a3

// PAIRBLOCK starts the block [b, 2b) of R12 = b: AX = 8i and CX = 8j,
// with which the bins k of four pairs sit at (AX*2), -16(CX*2), 32(AX*2)
// and -48(CX*2) from the base, and their partners at (CX*2), 16(AX*2),
// -32(CX*2) and 48(AX*2).
#define PAIRBLOCK \
	MOVQ R12, AX; \
	SHLQ $3, AX; \
	LEAQ -8(AX)(AX*1), CX

// func shapeAVX(y, w []complex128, g, pw []float64, lo, hi int)
//
// Registers: DI y, SI w, DX g, R8 pw, R10 len(pw), R12 the block b, R13
// hi, AX 8i, CX 8j; Y12 0, Y13 -0 (the sign bit), Y14 -½, Y15 ½.
TEXT ·shapeAVX(SB), NOSPLIT, $0-112
	MOVQ         y_base+0(FP), DI
	MOVQ         w_base+24(FP), SI
	MOVQ         g_base+48(FP), DX
	MOVQ         pw_base+72(FP), R8
	MOVQ         pw_len+80(FP), R10
	MOVQ         lo+96(FP), R12
	MOVQ         hi+104(FP), R13
	VXORPD       Y12, Y12, Y12
	VBROADCASTSD signbit<>(SB), Y13
	VBROADCASTSD neghalf<>(SB), Y14
	VBROADCASTSD half<>(SB), Y15
	JMP          shapenext

shapeblock:
	PAIRBLOCK

shapeloop:
	LOAD4((DI)(AX*2), -16(DI)(CX*2), 32(DI)(AX*2), -48(DI)(CX*2), Y2, Y3, X0, Y0, X1, Y1)
	LOAD4((DI)(CX*2), 16(DI)(AX*2), -32(DI)(CX*2), 48(DI)(AX*2), Y4, Y5, X0, Y0, X1, Y1)
	VXORPD Y13, Y5, Y5 // zj = conj(y[h-k])
	VADDPD Y4, Y2, Y0  // (zk+zj).re
	VADDPD Y5, Y3, Y1  // (zk+zj).im
	VSUBPD Y4, Y2, Y2  // (zk-zj).re
	VSUBPD Y5, Y3, Y3  // (zk-zj).im

	// e = (zk+zj)·½
	VMULPD Y15, Y0, Y4
	VMULPD Y12, Y1, Y5
	VSUBPD Y5, Y4, Y4 // e.re
	VMULPD Y12, Y0, Y0
	VMULPD Y15, Y1, Y1
	VADDPD Y1, Y0, Y0 // e.im

	// t = (zk-zj)·(-½i)
	VMULPD Y12, Y2, Y5
	VMULPD Y14, Y3, Y1
	VSUBPD Y1, Y5, Y5 // t.re
	VMULPD Y14, Y2, Y2
	VMULPD Y12, Y3, Y3
	VADDPD Y3, Y2, Y2 // t.im

	// wo = w·t
	LOAD4((SI)(AX*2), -16(SI)(CX*2), 32(SI)(AX*2), -48(SI)(CX*2), Y6, Y7, X1, Y1, X3, Y3)
	VMULPD Y5, Y6, Y1
	VMULPD Y2, Y7, Y3
	VSUBPD Y3, Y1, Y1 // wo.re
	VMULPD Y2, Y6, Y2
	VMULPD Y5, Y7, Y5
	VADDPD Y5, Y2, Y2 // wo.im

	// X[k] = e + wo, X[h-k] = conj(e - wo)
	VADDPD Y1, Y4, Y3
	VADDPD Y2, Y0, Y5
	VSUBPD Y1, Y4, Y4
	VSUBPD Y2, Y0, Y0
	VXORPD Y13, Y0, Y0
	TESTQ  R10, R10
	JZ     shapegain

	// pw gets |X[k]|² and |X[h-k]|² at the bins' positions.
	VMULPD       Y3, Y3, Y1
	VMULPD       Y5, Y5, Y2
	VADDPD       Y2, Y1, Y1
	VMULPD       Y4, Y4, Y2
	VMULPD       Y0, Y0, Y6
	VADDPD       Y6, Y2, Y2
	VMOVSD       X1, (R8)(AX*1)
	VMOVHPD      X1, 16(R8)(AX*1)
	VEXTRACTF128 $1, Y1, X1
	VMOVSD       X1, -8(R8)(CX*1)
	VMOVHPD      X1, -24(R8)(CX*1)
	VMOVSD       X2, (R8)(CX*1)
	VMOVHPD      X2, -16(R8)(CX*1)
	VEXTRACTF128 $1, Y2, X2
	VMOVSD       X2, 8(R8)(AX*1)
	VMOVHPD      X2, 24(R8)(AX*1)

shapegain:
	VMOVUPD    (DX)(AX*1), Y1      // g[i .. i+3]
	VMOVUPD    -24(DX)(CX*1), Y2   // g[j-3 .. j]
	VPERM2F128 $0x20, Y2, Y1, Y6
	VPERM2F128 $0x31, Y2, Y1, Y7
	VUNPCKLPD  Y7, Y6, Y1
	VPERMILPD  $6, Y1, Y1          // g[i], g[i+2], g[j-1], g[j-3]
	VUNPCKHPD  Y7, Y6, Y2
	VPERM2F128 $0x01, Y2, Y2, Y2
	VPERMILPD  $9, Y2, Y2          // g[j], g[j-2], g[i+1], g[i+3]
	VMULPD     Y1, Y3, Y3
	VMULPD     Y1, Y5, Y5
	STORE4(Y3, Y5, (DI)(AX*2), -16(DI)(CX*2), 32(DI)(AX*2), -48(DI)(CX*2), X6, Y6, X7, Y7)
	VMULPD     Y2, Y4, Y4
	VMULPD     Y2, Y0, Y0
	STORE4(Y4, Y0, (DI)(CX*2), 16(DI)(AX*2), -32(DI)(CX*2), 48(DI)(AX*2), X6, Y6, X7, Y7)
	ADDQ       $32, AX
	SUBQ       $32, CX
	CMPQ       AX, CX
	JB         shapeloop
	SHLQ       $1, R12

shapenext:
	CMPQ R12, R13
	JB   shapeblock
	VZEROUPPER
	RET

// func repackAVX(y, w []complex128, lo, hi int)
//
// Registers: DI y, SI w, R12 the block b, R13 hi, AX 8i, CX 8j; Y13 -0.
TEXT ·repackAVX(SB), NOSPLIT, $0-64
	MOVQ         y_base+0(FP), DI
	MOVQ         w_base+24(FP), SI
	MOVQ         lo+48(FP), R12
	MOVQ         hi+56(FP), R13
	VBROADCASTSD signbit<>(SB), Y13
	JMP          repacknext

repackblock:
	PAIRBLOCK

repackloop:
	LOAD4((DI)(AX*2), -16(DI)(CX*2), 32(DI)(AX*2), -48(DI)(CX*2), Y2, Y3, X0, Y0, X1, Y1)
	LOAD4((DI)(CX*2), 16(DI)(AX*2), -32(DI)(CX*2), 48(DI)(AX*2), Y4, Y5, X0, Y0, X1, Y1)
	VXORPD Y13, Y5, Y5 // yj = conj(y[h-k])
	VADDPD Y4, Y2, Y0  // e.re
	VADDPD Y5, Y3, Y1  // e.im
	VSUBPD Y4, Y2, Y2  // (yk-yj).re
	VSUBPD Y5, Y3, Y3  // (yk-yj).im

	// o = conj(w)·(yk-yj)
	LOAD4((SI)(AX*2), -16(SI)(CX*2), 32(SI)(AX*2), -48(SI)(CX*2), Y6, Y7, X4, Y4, X5, Y5)
	VXORPD Y13, Y7, Y7
	VMULPD Y2, Y6, Y4
	VMULPD Y3, Y7, Y5
	VSUBPD Y5, Y4, Y4 // o.re
	VMULPD Y3, Y6, Y3
	VMULPD Y2, Y7, Y2
	VADDPD Y2, Y3, Y3 // o.im

	// y[k] = e + (-o.im, o.re), y[h-k] = conj(e) + (o.im, o.re)
	VXORPD Y13, Y3, Y5
	VADDPD Y5, Y0, Y5
	VADDPD Y4, Y1, Y6
	STORE4(Y5, Y6, (DI)(AX*2), -16(DI)(CX*2), 32(DI)(AX*2), -48(DI)(CX*2), X2, Y2, X7, Y7)
	VADDPD Y3, Y0, Y0
	VXORPD Y13, Y1, Y1
	VADDPD Y4, Y1, Y1
	STORE4(Y0, Y1, (DI)(CX*2), 16(DI)(AX*2), -32(DI)(CX*2), 48(DI)(AX*2), X2, Y2, X7, Y7)
	ADDQ   $32, AX
	SUBQ   $32, CX
	CMPQ   AX, CX
	JB     repackloop
	SHLQ   $1, R12

repacknext:
	CMPQ R12, R13
	JB   repackblock
	VZEROUPPER
	RET

// UNPACK turns the packed entries k (p1 + i·q1) and h-k (p2 + i·q2) into
// 2X[k] = kr + i·ki and 2X[h-k] = jr + i·ji (productPairs' algebra) with the
// twiddle in Y14 (real) and Y15 (imaginary): kr, ki land in p1, q1, and
// jr, ji in q2, p2. t0, t1 are scratch.
#define UNPACK(p1, q1, p2, q2, t0, t1) \
	VADDPD p2, p1, t0; \
	VSUBPD p1, p2, p2; \
	VSUBPD q2, q1, t1; \
	VADDPD q2, q1, q1; \
	VMULPD q1, Y14, q2; \
	VMULPD p2, Y15, p1; \
	VSUBPD p1, q2, q2; \
	VMULPD p2, Y14, p2; \
	VMULPD q1, Y15, q1; \
	VADDPD q1, p2, p2; \
	VADDPD q2, t0, p1; \
	VSUBPD q2, t0, q2; \
	VADDPD p2, t1, q1; \
	VSUBPD t1, p2, p2

// func productAVX(za, y, w []complex128, lo, hi int)
//
// Registers: R8 za, DI y, SI w, R12 the block b, R13 hi, AX 8i, CX 8j;
// Y14, Y15 the twiddles of the four pairs.
TEXT ·productAVX(SB), NOSPLIT, $0-88
	MOVQ za_base+0(FP), R8
	MOVQ y_base+24(FP), DI
	MOVQ w_base+48(FP), SI
	MOVQ lo+72(FP), R12
	MOVQ hi+80(FP), R13
	JMP  productnext

productblock:
	PAIRBLOCK

productloop:
	LOAD4((SI)(AX*2), -16(SI)(CX*2), 32(SI)(AX*2), -48(SI)(CX*2), Y14, Y15, X0, Y0, X1, Y1)
	LOAD4((R8)(AX*2), -16(R8)(CX*2), 32(R8)(AX*2), -48(R8)(CX*2), Y0, Y1, X4, Y4, X5, Y5)
	LOAD4((R8)(CX*2), 16(R8)(AX*2), -32(R8)(CX*2), 48(R8)(AX*2), Y2, Y3, X4, Y4, X5, Y5)
	UNPACK(Y0, Y1, Y2, Y3, Y8, Y9) // 2A: akr Y0, aki Y1, ajr Y3, aji Y2
	LOAD4((DI)(AX*2), -16(DI)(CX*2), 32(DI)(AX*2), -48(DI)(CX*2), Y4, Y5, X8, Y8, X9, Y9)
	LOAD4((DI)(CX*2), 16(DI)(AX*2), -32(DI)(CX*2), 48(DI)(AX*2), Y6, Y7, X8, Y8, X9, Y9)
	UNPACK(Y4, Y5, Y6, Y7, Y8, Y9) // 2B: bkr Y4, bki Y5, bjr Y7, bji Y6

	// 4S[k] = conj(2A[k])·2B[k], and 4S[h-k]
	VMULPD Y4, Y0, Y8
	VMULPD Y5, Y1, Y9
	VADDPD Y9, Y8, Y8   // skr = akr·bkr + aki·bki
	VMULPD Y5, Y0, Y0
	VMULPD Y4, Y1, Y1
	VSUBPD Y1, Y0, Y0   // ski = akr·bki - aki·bkr
	VMULPD Y7, Y3, Y9
	VMULPD Y6, Y2, Y10
	VADDPD Y10, Y9, Y9  // sjr = ajr·bjr + aji·bji
	VMULPD Y6, Y3, Y3
	VMULPD Y7, Y2, Y2
	VSUBPD Y2, Y3, Y3   // sji = ajr·bji - aji·bjr

	// Repacked: y[k] = (er - oi, ei + or), y[h-k] = (er + oi, or - ei)
	VADDPD Y9, Y8, Y1   // er
	VSUBPD Y3, Y0, Y2   // ei
	VSUBPD Y9, Y8, Y8   // dr
	VADDPD Y3, Y0, Y0   // di
	VMULPD Y8, Y14, Y4
	VMULPD Y0, Y15, Y5
	VADDPD Y5, Y4, Y4   // or = wr·dr + wi·di
	VMULPD Y0, Y14, Y0
	VMULPD Y8, Y15, Y8
	VSUBPD Y8, Y0, Y0   // oi = wr·di - wi·dr
	VSUBPD Y0, Y1, Y5
	VADDPD Y4, Y2, Y6
	STORE4(Y5, Y6, (DI)(AX*2), -16(DI)(CX*2), 32(DI)(AX*2), -48(DI)(CX*2), X8, Y8, X9, Y9)
	VADDPD Y0, Y1, Y1
	VSUBPD Y2, Y4, Y4
	STORE4(Y1, Y4, (DI)(CX*2), 16(DI)(AX*2), -32(DI)(CX*2), 48(DI)(AX*2), X8, Y8, X9, Y9)
	ADDQ   $32, AX
	SUBQ   $32, CX
	CMPQ   AX, CX
	JB     productloop
	SHLQ   $1, R12

productnext:
	CMPQ R12, R13
	JB   productblock
	VZEROUPPER
	RET

// func foldAVX(f, y []complex128, rev []int32, lo, hi int)
//
// foldPairs on two accumulators P, P+1 (P even) per YMM: P's direct term
// comes first and P+1's conjugate term, so the first vector holds P's
// block and P+1's mirror block, conjugated in the upper lane, and the
// second P's mirror block, conjugated in the lower lane, and P+1's block.
//
// Registers: DI f, SI y, R8 rev, R11 len(rev) (g), R12 16g, AX P, DX P's
// mirror block, BX P+1's, R10 P's block, R13 P+1's, CX q, R9 16rev[q];
// Y14 and Y15 the conjugate masks of the upper and lower lane.
TEXT ·foldAVX(SB), NOSPLIT, $0-88
	MOVQ    f_base+0(FP), DI
	MOVQ    y_base+24(FP), SI
	MOVQ    rev_base+48(FP), R8
	MOVQ    rev_len+56(FP), R11
	MOVQ    lo+72(FP), AX
	MOVQ    R11, R12
	SHLQ    $4, R12
	VMOVUPD conjhi<>(SB), Y14
	VMOVUPD conjlo<>(SB), Y15

foldpair:
	CMPQ AX, hi+80(FP)
	JAE  folddone
	BSRQ AX, CX
	MOVQ $3, DX
	SHLQ CX, DX
	DECQ DX
	SUBQ AX, DX       // the mirror position 3·2^s-1-P
	IMULQ R12, DX
	ADDQ SI, DX
	MOVQ DX, BX
	SUBQ R12, BX
	MOVQ AX, R10
	IMULQ R12, R10
	ADDQ SI, R10
	LEAQ (R10)(R12*1), R13
	MOVQ AX, R9
	SHLQ $4, R9
	VMOVUPD (DI)(R9*1), Y0
	XORQ CX, CX

foldterm:
	MOVLQSX     (R8)(CX*4), R9
	SHLQ        $4, R9
	VMOVUPD     (R10)(R9*1), X1
	VINSERTF128 $1, (BX)(R9*1), Y1, Y1
	VXORPD      Y14, Y1, Y1
	VADDPD      Y1, Y0, Y0
	VMOVUPD     (DX)(R9*1), X2
	VINSERTF128 $1, (R13)(R9*1), Y2, Y2
	VXORPD      Y15, Y2, Y2
	VADDPD      Y2, Y0, Y0
	INCQ        CX
	CMPQ        CX, R11
	JB          foldterm

	MOVQ    AX, R9
	SHLQ    $4, R9
	VMOVUPD Y0, (DI)(R9*1)
	ADDQ    $2, AX
	JMP     foldpair

folddone:
	VZEROUPPER
	RET

// func scaleAVX(dst, src []float64, s float64)
TEXT ·scaleAVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX
	SUBQ         $8, CX
	JB           scaletail

scaleloop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JBE     scaleloop

scaletail:
	ADDQ    $8, CX
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JA      scalerest
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ    DX, AX

scalerest:
	CMPQ AX, CX
	JAE  scaledone

scaleone:
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     scaleone

scaledone:
	VZEROUPPER
	RET

// func maxAbsAVX(x []float64, m float64) float64
//
// VMAXPD a, b keeps b unless a > b, as the Go loop keeps m unless |x[i]| >
// m, so a NaN never replaces m. The maximum of the lanes is exact, so the
// order in which they combine does not matter.
TEXT ·maxAbsAVX(SB), NOSPLIT, $0-40
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSD m+24(FP), Y0
	VBROADCASTSD absmask<>(SB), Y2
	VMOVAPD      Y0, Y1
	XORQ         AX, AX
	SUBQ         $8, CX
	JB           maxtail

maxloop:
	VANDPD  (SI)(AX*8), Y2, Y3
	VANDPD  32(SI)(AX*8), Y2, Y4
	VMAXPD  Y0, Y3, Y0
	VMAXPD  Y1, Y4, Y1
	ADDQ    $8, AX
	CMPQ    AX, CX
	JBE     maxloop

maxtail:
	VMAXPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	ADDQ         $8, CX
	CMPQ         AX, CX
	JAE          maxdone

maxone:
	VMOVSD (SI)(AX*8), X3
	VANDPD X2, X3, X3
	VMAXSD X0, X3, X0
	INCQ   AX
	CMPQ   AX, CX
	JB     maxone

maxdone:
	VMOVSD X0, ret+32(FP)
	VZEROUPPER
	RET

// func cubicAVX(x []float64, peak, gain, d float64)
TEXT ·cubicAVX(SB), NOSPLIT, $0-48
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	VMOVSD       gain+32(FP), X0
	VMULSD       peak+24(FP), X0, X0
	VMOVDDUP     X0, X0
	VINSERTF128  $1, X0, Y0, Y0 // gain·peak
	VBROADCASTSD peak+24(FP), Y1
	VBROADCASTSD d+40(FP), Y2
	XORQ         AX, AX
	SUBQ         $4, CX
	JB           cubictail

cubicloop:
	VMOVUPD (SI)(AX*8), Y3
	VDIVPD  Y1, Y3, Y3 // u
	VMULPD  Y3, Y2, Y4
	VMULPD  Y3, Y4, Y4
	VMULPD  Y3, Y4, Y4 // d·u·u·u
	VSUBPD  Y4, Y3, Y3
	VMULPD  Y3, Y0, Y3
	VMOVUPD Y3, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JBE     cubicloop

cubictail:
	ADDQ $4, CX
	CMPQ AX, CX
	JAE  cubicdone

cubicone:
	VMOVSD (SI)(AX*8), X3
	VDIVSD X1, X3, X3
	VMULSD X3, X2, X4
	VMULSD X3, X4, X4
	VMULSD X3, X4, X4
	VSUBSD X4, X3, X3
	VMULSD X3, X0, X3
	VMOVSD X3, (SI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     cubicone

cubicdone:
	VZEROUPPER
	RET

// func dctAVX(dst, x, tab []float64)
//
// dctRows (mel.go) with sixteen coefficients per pass in four YMM
// accumulators: each lane sums its coefficient's terms in input order and
// then scales. The row stride of tab is len(dst) rounded up to 16 values.
TEXT ·dctAVX(SB), NOSPLIT, $128-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ tab_base+48(FP), DX
	LEAQ 15(R8), R9
	ANDQ $~15, R9
	SHLQ $3, R9 // bytes per row

chunk:
	TESTQ  R8, R8
	JLE    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R12
	MOVQ   DX, R13
	MOVQ   CX, BX
	TESTQ  BX, BX
	JE     scale

inner:
	VBROADCASTSD (R12), Y4
	VMULPD       0(R13), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R13), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R13), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R13), Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $8, R12
	ADDQ         R9, R13
	DECQ         BX
	JNE          inner

scale:
	// R13 is at the scale row.
	VMULPD 0(R13), Y0, Y0
	VMULPD 32(R13), Y1, Y1
	VMULPD 64(R13), Y2, Y2
	VMULPD 96(R13), Y3, Y3
	CMPQ   R8, $16
	JLT    partial
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, R8
	JMP     chunk

partial:
	VMOVUPD Y0, 0(SP)
	VMOVUPD Y1, 32(SP)
	VMOVUPD Y2, 64(SP)
	VMOVUPD Y3, 96(SP)
	XORQ    AX, AX

copy:
	MOVQ (SP)(AX*8), BX
	MOVQ BX, (DI)(AX*8)
	INCQ AX
	CMPQ AX, R8
	JLT  copy

done:
	VZEROUPPER
	RET
