#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // ECX bit 27 OSXSAVE, bit 28 AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0 bit 1 SSE state, bit 2 AVX state
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func scanAVX(u *float64, v, b *float32, out *float64, n, d int)
//
// DotF64F32's accumulators s0..s3 are the four lanes of Y0. Multiply and
// add stay separate instructions: the compiled Go loop rounds the product
// (MULSD then ADDSD at every GOAMD64 level, go1.24), so must this;
// TestScanF64F32IsDotF64F32 is what notices if a compiler ever fuses it.
// Every memory operand is VEX-encoded and so alignment-free; mapped rows
// are only 4-byte aligned.
TEXT ·scanAVX(SB), NOSPLIT, $0-48
	MOVQ u+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ b+16(FP), BX
	MOVQ out+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ d+40(FP), R8
	MOVQ R8, R9
	ANDQ $-4, R9 // d rounded down to whole lanes

row:
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, R9
	JGE    reduce

lanes:
	VCVTPS2PD (DI)(AX*4), Y1
	VMULPD    (SI)(AX*8), Y1, Y1
	VADDPD    Y1, Y0, Y0
	ADDQ      $4, AX
	CMPQ      AX, R9
	JLT       lanes

reduce:
	VHADDPD      Y0, Y0, Y0 // s0+s1 | s0+s1 | s2+s3 | s2+s3
	VEXTRACTF128 $1, Y0, X1
	VADDSD       X1, X0, X0 // (s0+s1) + (s2+s3)

tail:
	CMPQ      AX, R8
	JGE       bias
	VCVTSS2SD (DI)(AX*4), X1, X1
	VMULSD    (SI)(AX*8), X1, X1
	VADDSD    X1, X0, X0
	INCQ      AX
	JMP       tail

bias:
	TESTQ     BX, BX
	JZ        store
	VCVTSS2SD (BX), X1, X1
	VADDSD    X1, X0, X0
	ADDQ      $4, BX

store:
	VMOVSD X0, (DX)
	ADDQ   $8, DX
	LEAQ   (DI)(R8*4), DI
	DECQ   CX
	JNZ    row
	VZEROUPPER
	RET
