// The LSTM gate row for amd64 with AVX2 and FMA. See gate.go (gateRow)
// for the scalar lane it reproduces and gate_amd64.go for the dispatch.
//
// EXP is math.Exp's FMA path (math/exp_amd64.s, label avxfma) on four
// lanes, instruction for instruction, for arguments whose result is
// normal: the reduction by round(x·log2 e)·ln 2 in two fused steps, the
// degree-7 Taylor polynomial in FMAs, the four squarings and the scaling
// by 2^k built from the exponent bits. The gate kernel keeps every
// argument inside that range (|z| <= 708) or discards the lane by a
// blend, as math.tanh's branches do. TANH and SIGMOID evaluate every
// branch of math.tanh and of the scalar sigmoid with the same operations
// in the same order, with no FMA where the Go code has none, and blend.

#include "textflag.h"

// The constants of math/exp_amd64.s and math/tanh.go as float64 bits,
// with the kernel's range limit (708) and masks, four lanes each so that
// every instruction can take them as a 256-bit memory operand.
#define CONST4(off, v) DATA gateconst<>+off(SB)/8, v; DATA gateconst<>+off+8(SB)/8, v; DATA gateconst<>+off+16(SB)/8, v; DATA gateconst<>+off+24(SB)/8, v

#define ABS gateconst<>+0(SB)
CONST4(0, $0x7fffffffffffffff)
#define SIGN gateconst<>+32(SB)
CONST4(32, $0x8000000000000000)
#define LIM gateconst<>+64(SB)
CONST4(64, $0x4086200000000000)
#define MAXF gateconst<>+96(SB)
CONST4(96, $0x7fefffffffffffff)
#define LOG2E gateconst<>+128(SB)
CONST4(128, $0x3ff71547652b82fe)
#define LN2U gateconst<>+160(SB)
CONST4(160, $0x3fe62e42fefa3000)
#define LN2L gateconst<>+192(SB)
CONST4(192, $0x3d53de6af278ece6)
#define SIXTEENTH gateconst<>+224(SB)
CONST4(224, $0x3fb0000000000000)
#define C64 gateconst<>+256(SB)
CONST4(256, $0x3efa01a01a01a01a)
#define C56 gateconst<>+288(SB)
CONST4(288, $0x3f2a01a01a01a01a)
#define C48 gateconst<>+320(SB)
CONST4(320, $0x3f56c16c16c16c17)
#define C40 gateconst<>+352(SB)
CONST4(352, $0x3f81111111111111)
#define C32 gateconst<>+384(SB)
CONST4(384, $0x3fa5555555555555)
#define C24 gateconst<>+416(SB)
CONST4(416, $0x3fc5555555555555)
#define HALF gateconst<>+448(SB)
CONST4(448, $0x3fe0000000000000)
#define ONE gateconst<>+480(SB)
CONST4(480, $0x3ff0000000000000)
#define TWO gateconst<>+512(SB)
CONST4(512, $0x4000000000000000)
#define BIG gateconst<>+544(SB)
CONST4(544, $0x404601e678fc457b)
#define P625 gateconst<>+576(SB)
CONST4(576, $0x3fe4000000000000)
#define TP0 gateconst<>+608(SB)
CONST4(608, $0xbfeedc5baafd6f4b)
#define TP1 gateconst<>+640(SB)
CONST4(640, $0xc058d26a0e26682d)
#define TP2 gateconst<>+672(SB)
CONST4(672, $0xc0993ac030580563)
#define TQ0 gateconst<>+704(SB)
CONST4(704, $0x405c33f28a581b86)
#define TQ1 gateconst<>+736(SB)
CONST4(736, $0x40a176fa0e5535fa)
#define TQ2 gateconst<>+768(SB)
CONST4(768, $0x40b2ec102442040c)
#define BIAS gateconst<>+800(SB)
DATA gateconst<>+800(SB)/8, $0x000003ff000003ff
DATA gateconst<>+808(SB)/8, $0x000003ff000003ff
GLOBL gateconst<>(SB), RODATA|NOPTR, $816

// EXP sets x = exp(x) on four lanes; t1 and t2 are scratch, t1x is t1's
// low half.
#define EXP(x, t1, t2, t1x) \
	VMULPD       LOG2E, x, t1; \
	VCVTPD2DQY   t1, t1x; \
	VCVTDQ2PD    t1x, t2; \
	VFNMADD231PD LN2U, t2, x; \
	VFNMADD231PD LN2L, t2, x; \
	VMULPD       SIXTEENTH, x, x; \
	VMOVUPD      C64, t2; \
	VFMADD213PD  C56, x, t2; \
	VFMADD213PD  C48, x, t2; \
	VFMADD213PD  C40, x, t2; \
	VFMADD213PD  C32, x, t2; \
	VFMADD213PD  C24, x, t2; \
	VFMADD213PD  HALF, x, t2; \
	VFMADD213PD  ONE, x, t2; \
	VMULPD       t2, x, x; \
	VADDPD       TWO, x, t2; \
	VMULPD       t2, x, x; \
	VADDPD       TWO, x, t2; \
	VMULPD       t2, x, x; \
	VADDPD       TWO, x, t2; \
	VMULPD       t2, x, x; \
	VADDPD       TWO, x, t2; \
	VFMADD213PD  ONE, t2, x; \
	VPADDD       BIAS, t1x, t1x; \
	VPMOVZXDQ    t1x, t2; \
	VPSLLQ       $52, t2, t2; \
	VMULPD       t2, x, x

// SIGMOID sets out = sigmoid(z): 1/(1+e) where z >= 0 and e/(1+e)
// elsewhere, e = exp(-|z|).
#define SIGMOID(z, out, t1, t2, t1x) \
	VORPD     SIGN, z, out; \
	EXP(out, t1, t2, t1x); \
	VADDPD    ONE, out, t2; \
	VXORPD    t1, t1, t1; \
	VCMPPD    $0x1D, t1, z, t1; \
	VBLENDVPD t1, ONE, out, out; \
	VDIVPD    t2, out, out

// TANH sets out = tanh(x): ±1 past 0.5·MAXLOG, ±(1 - 2/(exp(2|x|)+1))
// from 0.625, the rational approximation below, and x itself at ±0.
#define TANH(x, out, z, t1, t2, t1x, w) \
	VANDPD    ABS, x, z; \
	VADDPD    z, z, out; \
	EXP(out, t1, t2, t1x); \
	VADDPD    ONE, out, out; \
	VMOVUPD   TWO, t1; \
	VDIVPD    out, t1, out; \
	VMOVUPD   ONE, t1; \
	VSUBPD    out, t1, out; \
	VANDPD    SIGN, x, t2; \
	VORPD     t2, out, out; \
	VORPD     ONE, t2, t2; \
	VCMPPD    $0x1E, BIG, z, t1; \
	VBLENDVPD t1, t2, out, out; \
	VCMPPD    $0x1D, P625, z, z; \
	VMULPD    x, x, t1; \
	VMULPD    TP0, t1, t2; \
	VADDPD    TP1, t2, t2; \
	VMULPD    t1, t2, t2; \
	VADDPD    TP2, t2, t2; \
	VADDPD    TQ0, t1, w; \
	VMULPD    t1, w, w; \
	VADDPD    TQ1, w, w; \
	VMULPD    t1, w, w; \
	VADDPD    TQ2, w, w; \
	VMULPD    t1, x, t1; \
	VMULPD    t2, t1, t1; \
	VDIVPD    w, t1, t1; \
	VADDPD    t1, x, t1; \
	VBLENDVPD z, out, t1, out; \
	VXORPD    t2, t2, t2; \
	VCMPPD    $0x00, t2, x, t2; \
	VBLENDVPD t2, x, out, out

// OUTSIDE ors into bad the lanes where |v| is not <= lim (NaN included);
// t is scratch.
#define OUTSIDE(v, lim, bad, t) \
	VANDPD ABS, v, t; \
	VCMPPD $0x16, lim, t, t; \
	VORPD  t, bad, bad

// func gatesAVX(zx, zh, b, prevC, gates, cell, tc, hid []float64, j int) int
TEXT ·gatesAVX(SB), NOSPLIT, $0-208
	MOVQ j+192(FP), AX
	MOVQ cell_len+128(FP), CX
	MOVQ CX, BX
	SHLQ $3, BX             // BX = 8H, the byte stride between gate blocks
	LEAQ (BX)(BX*2), DI     // DI = 24H, the output gate's block
	SUBQ $4, CX             // the last lane a group of four can start at
	MOVQ zx_base+0(FP), SI
	LEAQ (SI)(AX*8), SI
	MOVQ zh_base+24(FP), DX
	LEAQ (DX)(AX*8), DX
	MOVQ b_base+48(FP), R8
	LEAQ (R8)(AX*8), R8
	MOVQ prevC_base+72(FP), R9
	LEAQ (R9)(AX*8), R9
	MOVQ gates_base+96(FP), R10
	LEAQ (R10)(AX*8), R10
	MOVQ cell_base+120(FP), R11
	LEAQ (R11)(AX*8), R11
	MOVQ tc_base+144(FP), R12
	LEAQ (R12)(AX*8), R12
	MOVQ hid_base+168(FP), R13
	LEAQ (R13)(AX*8), R13

loop:
	CMPQ AX, CX
	JGT  done

	// The pre-activations zx + zh + b of gates i, f, g and o.
	VMOVUPD (SI), Y0
	VADDPD  (DX), Y0, Y0
	VADDPD  (R8), Y0, Y0
	VMOVUPD (SI)(BX*1), Y1
	VADDPD  (DX)(BX*1), Y1, Y1
	VADDPD  (R8)(BX*1), Y1, Y1
	VMOVUPD (SI)(BX*2), Y2
	VADDPD  (DX)(BX*2), Y2, Y2
	VADDPD  (R8)(BX*2), Y2, Y2
	VMOVUPD (SI)(DI*1), Y3
	VADDPD  (DX)(DI*1), Y3, Y3
	VADDPD  (R8)(DI*1), Y3, Y3

	// A lane past ±708 (or NaN) leaves the group to the scalar loop.
	VXORPD  Y4, Y4, Y4
	OUTSIDE(Y0, LIM, Y4, Y5)
	OUTSIDE(Y1, LIM, Y4, Y5)
	OUTSIDE(Y2, LIM, Y4, Y5)
	OUTSIDE(Y3, LIM, Y4, Y5)
	VTESTPD Y4, Y4
	JNE     done

	SIGMOID(Y0, Y8, Y4, Y5, X4)
	SIGMOID(Y1, Y9, Y4, Y5, X4)
	SIGMOID(Y3, Y11, Y4, Y5, X4)
	TANH(Y2, Y10, Y12, Y4, Y5, X4, Y6)
	VMOVUPD Y8, (R10)
	VMOVUPD Y9, (R10)(BX*1)
	VMOVUPD Y10, (R10)(BX*2)
	VMOVUPD Y11, (R10)(DI*1)

	// c = f·prevC + i·g. A non-finite c leaves the group to the scalar
	// loop before its cell is written (the gates it stored are the
	// scalar loop's bits too).
	VMULPD  (R9), Y9, Y0
	VMULPD  Y10, Y8, Y1
	VADDPD  Y1, Y0, Y0
	VXORPD  Y4, Y4, Y4
	OUTSIDE(Y0, MAXF, Y4, Y5)
	VTESTPD Y4, Y4
	JNE     done

	TANH(Y0, Y2, Y12, Y4, Y5, X4, Y6)
	VMULPD  Y2, Y11, Y3
	VMOVUPD Y0, (R11)
	VMOVUPD Y2, (R12)
	VMOVUPD Y3, (R13)

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $4, AX
	JMP  loop

done:
	MOVQ AX, ret+200(FP)
	VZEROUPPER
	RET
