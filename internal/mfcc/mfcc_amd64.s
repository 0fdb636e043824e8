// Two of Extract's per-frame passes in YMM registers. See mfcc.go
// (emphasizeGeneric, the log loop in Extract) for the scalar loops they
// reproduce and mfcc_amd64.go for the dispatch. Every lane runs its scalar
// loop's operations in the same order, and no FMA is used, so each output
// bit matches.

#include "textflag.h"

// func emphasizeAVX(dst, x, w []float64, c, prev float64)
//
// dst[i] = (x[i] - c*x[i-1]) * w[i] four samples at a time, x[-1] = prev;
// with c <= 0, dst[i] = x[i] * w[i].
TEXT ·emphasizeAVX(SB), NOSPLIT, $0-88
	MOVQ  dst_base+0(FP), DI
	MOVQ  x_base+24(FP), SI
	MOVQ  w_base+48(FP), DX
	MOVQ  w_len+56(FP), CX
	TESTQ CX, CX
	JE    done
	XORQ  AX, AX
	VMOVSD   c+72(FP), X0
	VXORPD   X2, X2, X2
	VUCOMISD X2, X0
	JA       first

plain4:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     plain1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DX)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ    BX, AX
	JMP     plain4

plain1:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X1
	VMULSD (DX)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    plain1

first:
	// Sample 0 takes prev as its predecessor.
	VMOVSD       prev+80(FP), X1
	VMULSD       X0, X1, X1
	VMOVSD       (SI), X2
	VSUBSD       X1, X2, X2
	VMULSD       (DX), X2, X2
	VMOVSD       X2, (DI)
	VBROADCASTSD c+72(FP), Y0
	MOVQ         $1, AX

emph4:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     emph1
	VMULPD  -8(SI)(AX*8), Y0, Y1
	VMOVUPD (SI)(AX*8), Y2
	VSUBPD  Y1, Y2, Y2
	VMULPD  (DX)(AX*8), Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	MOVQ    BX, AX
	JMP     emph4

emph1:
	CMPQ   AX, CX
	JGE    done
	VMOVSD -8(SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (SI)(AX*8), X2
	VSUBSD X1, X2, X2
	VMULSD (DX)(AX*8), X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    emph1

done:
	VZEROUPPER
	RET

// The constants of math/log_amd64.s, written as it writes them, four lanes
// each so that every instruction can take them as a 256-bit memory
// operand.
#define CONST4(off, v) DATA logconst<>+off(SB)/8, v; DATA logconst<>+off+8(SB)/8, v; DATA logconst<>+off+16(SB)/8, v; DATA logconst<>+off+24(SB)/8, v

CONST4(0, $0x000FFFFFFFFFFFFF)   // mantissa mask
CONST4(32, $0.5)
CONST4(64, $7.07106781186547524401e-01) // HSqrt2
CONST4(96, $1.0)
CONST4(128, $2.0)
CONST4(160, $6.666666666666735130e-01) // L1
CONST4(192, $3.999999999940941908e-01) // L2
CONST4(224, $2.857142874366239149e-01) // L3
CONST4(256, $2.222219843214978396e-01) // L4
CONST4(288, $1.818357216161805012e-01) // L5
CONST4(320, $1.531383769920937332e-01) // L6
CONST4(352, $1.479819860511658591e-01) // L7
CONST4(384, $1.90821492927058770002e-10) // Ln2Lo
CONST4(416, $6.93147180369123816490e-01) // Ln2Hi
CONST4(448, $0x7FF0000000000000) // +Inf
DATA logconst<>+480(SB)/4, $0x7FF // exponent mask, four dwords
DATA logconst<>+484(SB)/4, $0x7FF
DATA logconst<>+488(SB)/4, $0x7FF
DATA logconst<>+492(SB)/4, $0x7FF
DATA logconst<>+496(SB)/4, $0x3FE // exponent bias minus one
DATA logconst<>+500(SB)/4, $0x3FE
DATA logconst<>+504(SB)/4, $0x3FE
DATA logconst<>+508(SB)/4, $0x3FE
GLOBL logconst<>(SB), RODATA|NOPTR, $512

// func logsAVX(dst, src []float64, floor float64, i int) int
//
// dst[j] = math.Log(src[j] + floor) four lanes at a time from lane i on.
// The lanes follow math/log_amd64.s instruction for instruction; its
// special cases (zero, negative, +Inf or NaN) are left to the scalar
// loop: the kernel returns at the first group that holds one, or at the
// end of its last whole group.
TEXT ·logsAVX(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSD floor+48(FP), Y15
	MOVQ         i+56(FP), AX
	VXORPD       Y14, Y14, Y14
	VMOVUPD      logconst<>+64(SB), Y13 // HSqrt2

loop:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     done
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  Y15, Y0, Y0 // x

	// Every lane must satisfy 0 < x < +Inf.
	VCMPPD    $0x1E, Y14, Y0, Y1            // x > 0 (GT_OQ)
	VCMPPD    $0x11, logconst<>+448(SB), Y0, Y2 // x < +Inf (LT_OQ)
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       done

	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD        logconst<>+0(SB), Y0, Y2
	VORPD         logconst<>+32(SB), Y2, Y2 // f1
	VEXTRACTF128  $1, Y0, X3
	VSHUFPS       $0xDD, X3, X0, X3 // high dwords of the four lanes
	VPSRLD        $20, X3, X3
	VPAND         logconst<>+480(SB), X3, X3
	VPSUBD        logconst<>+496(SB), X3, X3
	VCVTDQ2PD     X3, Y1 // k

	// if f1 < math.Sqrt2/2 { k -= 1; f1 *= 2 }
	VCMPPD $5, Y2, Y13, Y3 // !(HSqrt2 < f1)
	VANDPD logconst<>+96(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD logconst<>+96(SB), Y3, Y3
	VMULPD Y3, Y2, Y2

	// f := f1 - 1
	VSUBPD logconst<>+96(SB), Y2, Y2

	// s := f / (2 + f)
	VADDPD logconst<>+128(SB), Y2, Y4
	VDIVPD Y4, Y2, Y3

	// s2 := s * s; s4 := s2 * s2
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logconst<>+352(SB), Y5, Y6
	VADDPD logconst<>+288(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+224(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+160(SB), Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD logconst<>+320(SB), Y5, Y6
	VADDPD logconst<>+256(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logconst<>+192(SB), Y6, Y6
	VMULPD Y6, Y5, Y5

	// R := t1 + t2
	VADDPD Y5, Y4, Y4

	// hfsq := 0.5 * f * f
	VMULPD logconst<>+32(SB), Y2, Y0
	VMULPD Y2, Y0, Y0

	// return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD  Y0, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  logconst<>+384(SB), Y1, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y0, Y0
	VSUBPD  Y2, Y0, Y0
	VMULPD  logconst<>+416(SB), Y1, Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)

	MOVQ BX, AX
	JMP  loop

done:
	MOVQ AX, ret+64(FP)
	VZEROUPPER
	RET
