// Features for amd64. See cpuid_amd64.go.

#include "textflag.h"

// func Features() (avx, avx2fma bool)
TEXT ·Features(SB), NOSPLIT, $0-2
	MOVB $0, avx+0(FP)
	MOVB $0, avx2fma+1(FP)
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	MOVL AX, R8
	// CPUID.1:ECX: OSXSAVE (bit 27) and AVX (28), then XCR0: the OS saves
	// the XMM and YMM registers.
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R9
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, avx+0(FP)
	// CPUID.1:ECX: FMA (bit 12), then CPUID.7:EBX: AVX2 (bit 5).
	ANDL $0x1000, R9
	JEQ  no
	CMPL R8, $7
	JLT  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JEQ  no
	MOVB $1, avx2fma+1(FP)

no:
	RET
