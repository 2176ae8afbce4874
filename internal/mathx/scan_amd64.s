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
// Four rows per pass, n a multiple of four: DotF64F32's accumulators
// s0..s3 for row q of the pass are the four lanes of Yq. The user chunk is
// loaded once per four coordinates and shared by the four rows, whose
// adds are four independent chains. One reduce serves all four rows: the
// two VHADDPD leave s0+s1 and s2+s3 of each row in separate 128-bit
// halves, the VPERM2F128 pair sorts them into one register of s0+s1 and
// one of s2+s3, lane q row q's, and the add takes s0+s1 as its first
// source. Multiply and add stay separate instructions: the compiled Go
// loop rounds the product (MULSD then ADDSD at every GOAMD64 level,
// go1.24), so must this; TestScanF64F32IsDotF64F32 is what notices if a
// compiler ever fuses it. Every memory operand is VEX-encoded and so
// alignment-free; mapped rows are only 4-byte aligned.
TEXT ·scanAVX(SB), NOSPLIT, $0-48
	MOVQ u+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ b+16(FP), BX
	MOVQ out+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ d+40(FP), R8
	MOVQ R8, R9
	ANDQ $-4, R9 // d rounded down to whole lanes
	MOVQ R8, R10
	SHLQ $2, R10 // bytes in a row

rows:
	LEAQ   (DI)(R10*1), R11 // rows 1, 2, 3 of this pass
	LEAQ   (R11)(R10*1), R12
	LEAQ   (R12)(R10*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, R9
	JGE    reduce

lanes:
	VMOVUPD   (SI)(AX*8), Y8
	VCVTPS2PD (DI)(AX*4), Y4
	VCVTPS2PD (R11)(AX*4), Y5
	VCVTPS2PD (R12)(AX*4), Y6
	VCVTPS2PD (R13)(AX*4), Y7
	VMULPD    Y8, Y4, Y4
	VMULPD    Y8, Y5, Y5
	VMULPD    Y8, Y6, Y6
	VMULPD    Y8, Y7, Y7
	VADDPD    Y4, Y0, Y0
	VADDPD    Y5, Y1, Y1
	VADDPD    Y6, Y2, Y2
	VADDPD    Y7, Y3, Y3
	ADDQ      $4, AX
	CMPQ      AX, R9
	JLT       lanes

reduce:
	VHADDPD    Y1, Y0, Y4        // r0 s0+s1 | r1 s0+s1 | r0 s2+s3 | r1 s2+s3
	VHADDPD    Y3, Y2, Y5        // r2 s0+s1 | r3 s0+s1 | r2 s2+s3 | r3 s2+s3
	VPERM2F128 $0x20, Y5, Y4, Y6 // s0+s1 of rows 0..3
	VPERM2F128 $0x31, Y5, Y4, Y7 // s2+s3 of rows 0..3
	VADDPD     Y7, Y6, Y0        // (s0+s1) + (s2+s3)

tail:
	CMPQ         AX, R8
	JGE          bias
	VMOVSS       (DI)(AX*4), X4 // gather one coordinate of the four rows
	VINSERTPS    $0x10, (R11)(AX*4), X4, X4
	VINSERTPS    $0x20, (R12)(AX*4), X4, X4
	VINSERTPS    $0x30, (R13)(AX*4), X4, X4
	VCVTPS2PD    X4, Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VMULPD       Y5, Y4, Y4
	VADDPD       Y4, Y0, Y0
	INCQ         AX
	JMP          tail

bias:
	TESTQ     BX, BX
	JZ        store
	VCVTPS2PD (BX), Y4
	VADDPD    Y4, Y0, Y0
	ADDQ      $16, BX

store:
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	LEAQ    (R13)(R10*1), DI
	SUBQ    $4, CX
	JNZ     rows
	VZEROUPPER
	RET

// func scanF64AVX(u, v, b, out *float64, n, d int)
//
// Four rows per pass: lane q of Y0 is Dot's one accumulator for row q. A
// chunk of four coordinates is loaded from each row and transposed, so
// that Y1..Y4 each hold one coordinate of the four rows; each is then
// multiplied by that coordinate of u and added to Y0, in coordinate
// order, which is the order Dot adds a row's products in. Multiply and
// add stay separate, as in scanAVX: the compiled Dot rounds the product,
// and TestScanF64IsDot is what notices if a compiler ever fuses it.
TEXT ·scanF64AVX(SB), NOSPLIT, $0-48
	MOVQ u+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ b+16(FP), BX
	MOVQ out+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ d+40(FP), R8
	MOVQ R8, R9
	ANDQ $-4, R9 // d rounded down to whole chunks
	MOVQ R8, R10
	SHLQ $3, R10 // bytes in a row

rows4:
	LEAQ   (DI)(R10*1), R11 // rows 1, 2, 3 of this pass
	LEAQ   (R11)(R10*1), R12
	LEAQ   (R12)(R10*1), R13
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, R9
	JGE    tail4

chunk4:
	VMOVUPD      (DI)(AX*8), Y1
	VMOVUPD      (R11)(AX*8), Y2
	VMOVUPD      (R12)(AX*8), Y3
	VMOVUPD      (R13)(AX*8), Y4
	VUNPCKLPD    Y2, Y1, Y5         // r0[0] r1[0] r0[2] r1[2]
	VUNPCKHPD    Y2, Y1, Y6         // r0[1] r1[1] r0[3] r1[3]
	VUNPCKLPD    Y4, Y3, Y7         // r2[0] r3[0] r2[2] r3[2]
	VUNPCKHPD    Y4, Y3, Y8         // r2[1] r3[1] r2[3] r3[3]
	VPERM2F128   $0x20, Y7, Y5, Y1  // coordinate 0 of rows 0..3
	VPERM2F128   $0x20, Y8, Y6, Y2  // coordinate 1
	VPERM2F128   $0x31, Y7, Y5, Y3  // coordinate 2
	VPERM2F128   $0x31, Y8, Y6, Y4  // coordinate 3
	VBROADCASTSD (SI)(AX*8), Y5
	VMULPD       Y5, Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 8(SI)(AX*8), Y5
	VMULPD       Y5, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VBROADCASTSD 16(SI)(AX*8), Y5
	VMULPD       Y5, Y3, Y3
	VADDPD       Y3, Y0, Y0
	VBROADCASTSD 24(SI)(AX*8), Y5
	VMULPD       Y5, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $4, AX
	CMPQ         AX, R9
	JLT          chunk4

tail4:
	CMPQ         AX, R8
	JGE          bias4
	VMOVSD       (DI)(AX*8), X1 // gather one coordinate of the four rows
	VMOVHPD      (R11)(AX*8), X1, X1
	VMOVSD       (R12)(AX*8), X2
	VMOVHPD      (R13)(AX*8), X2, X2
	VINSERTF128  $1, X2, Y1, Y1
	VBROADCASTSD (SI)(AX*8), Y5
	VMULPD       Y5, Y1, Y1
	VADDPD       Y1, Y0, Y0
	INCQ         AX
	JMP          tail4

bias4:
	TESTQ  BX, BX
	JZ     store4
	VADDPD (BX), Y0, Y0
	ADDQ   $32, BX

store4:
	VMOVUPD Y0, (DX)
	ADDQ    $32, DX
	LEAQ    (R13)(R10*1), DI
	SUBQ    $4, CX
	JNZ     rows4
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// CPUID.0:EAX, the highest leaf, must reach 7 before leaf 7 is asked;
// CPUID.(EAX=7,ECX=0):EBX bit 5 is AVX2. The OS half (XCR0) is useAVX's.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET
no2:
	MOVB $0, ret+0(FP)
	RET

// func boundI8AVX2(p *int8, q *uint8, b *float32, mask *uint64, blocks, groups int, delta float32, sum int32, thr float32)
//
// One block of 16 rows a pass, the image in imageByte's layout: each group
// of four dimensions is 64 bytes, rows 0..7 of the block four bytes each,
// then rows 8..15. Groups go two a loop pass, after one on its own when
// their count is odd. The query's four bytes of a group are broadcast to
// every lane of Y8 (Y10); VPMADDUBSW multiplies the rows' unsigned bytes by them
// and adds neighbours into 16-bit sums (|p| ≤ 63, so at most 2·255·63:
// never saturated), VPMADDWD by ones adds the two sums of a row into its
// 32-bit lane, and VPADDD adds that onto the row's running sum, lane r row
// r's in Y0 (rows 0..7) and Y1 (rows 8..15). Integer adds are exact and
// associative (mod 2³², as boundI8Go's int32 adds are), so no horizontal
// add is needed and the order is free. VPSUBD takes 128·Σp off, and the
// float part is boundI8Go's: VCVTDQ2PS, VMULPS by Δ, VADDPS of the bias,
// never fused. Then the survivor test instead of a store: a lane is set
// when its score is not below thr (NLT_US: true for a tie, and for a NaN
// on either side) or is not finite (s̃ − s̃ NEQ_UQ 0), and the two
// VMOVMSKPS masks are the block's 16 bits, row r bit r. Every memory
// operand is VEX-encoded and so alignment-free.
TEXT ·boundI8AVX2(SB), NOSPLIT, $0-60
	MOVQ         p+0(FP), SI
	MOVQ         q+8(FP), DI
	MOVQ         b+16(FP), BX
	MOVQ         mask+24(FP), DX
	MOVQ         blocks+32(FP), CX
	MOVQ         groups+40(FP), R10
	VPCMPEQW     Y9, Y9, Y9
	VPSRLW       $15, Y9, Y9 // sixteen 16-bit ones
	MOVL         sum+52(FP), AX
	SHLL         $7, AX // 128·Σp
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	VBROADCASTSS delta+48(FP), Y12
	VBROADCASTSS thr+56(FP), Y13
	VXORPS       Y14, Y14, Y14

blockI8:
	MOVQ   SI, R8  // the query's cursor
	MOVQ   R10, R9 // groups left
	VPXOR  Y0, Y0, Y0
	VPXOR  Y1, Y1, Y1
	TESTQ  $1, R9
	JZ     pairI8

	VPBROADCASTD (R8), Y8
	VMOVDQU      (DI), Y4   // rows 0..7
	VMOVDQU      32(DI), Y5 // rows 8..15
	VPMADDUBSW   Y8, Y4, Y4
	VPMADDUBSW   Y8, Y5, Y5
	VPMADDWD     Y9, Y4, Y0
	VPMADDWD     Y9, Y5, Y1
	ADDQ         $4, R8
	ADDQ         $64, DI
	DECQ         R9
	JZ           sumI8

pairI8:
	VPBROADCASTD (R8), Y8
	VPBROADCASTD 4(R8), Y10
	VMOVDQU      (DI), Y4
	VMOVDQU      32(DI), Y5
	VMOVDQU      64(DI), Y6
	VMOVDQU      96(DI), Y7
	VPMADDUBSW   Y8, Y4, Y4
	VPMADDUBSW   Y8, Y5, Y5
	VPMADDUBSW   Y10, Y6, Y6
	VPMADDUBSW   Y10, Y7, Y7
	VPMADDWD     Y9, Y4, Y4
	VPMADDWD     Y9, Y5, Y5
	VPMADDWD     Y9, Y6, Y6
	VPMADDWD     Y9, Y7, Y7
	VPADDD       Y4, Y0, Y0
	VPADDD       Y5, Y1, Y1
	VPADDD       Y6, Y0, Y0
	VPADDD       Y7, Y1, Y1
	ADDQ         $8, R8
	ADDQ         $128, DI
	SUBQ         $2, R9
	JNZ          pairI8

sumI8:
	VPSUBD    Y11, Y0, Y0
	VPSUBD    Y11, Y1, Y1
	VCVTDQ2PS Y0, Y0
	VCVTDQ2PS Y1, Y1
	VMULPS    Y12, Y0, Y0
	VMULPS    Y12, Y1, Y1
	VADDPS    (BX), Y0, Y0
	VADDPS    32(BX), Y1, Y1
	VCMPPS    $5, Y13, Y0, Y2 // NLT_US: !(s̃ < thr)
	VCMPPS    $5, Y13, Y1, Y3
	VSUBPS    Y0, Y0, Y0
	VSUBPS    Y1, Y1, Y1
	VCMPPS    $4, Y14, Y0, Y0 // NEQ_UQ: s̃ − s̃ != 0
	VCMPPS    $4, Y14, Y1, Y1
	VORPS     Y0, Y2, Y2
	VORPS     Y1, Y3, Y3
	VMOVMSKPS Y2, AX
	VMOVMSKPS Y3, R11
	SHLL      $8, R11
	ORL       R11, AX
	MOVW      AX, (DX)
	ADDQ      $64, BX
	ADDQ      $2, DX
	DECQ      CX
	JNZ       blockI8
	VZEROUPPER
	RET

// func firstNotBelowAVX(x *float64, n int, floor float64) int
//
// n is a multiple of four. A lane is set when its score is not below the
// floor (NLT: true for a tie, and for a NaN on either side) or is not
// finite (x-x is zero for a finite x only, NaN for ±Inf and NaN, and NEQ
// holds for a NaN): the scores Selector.Offer would push or count.
TEXT ·firstNotBelowAVX(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD floor+16(FP), Y0
	VXORPD       Y1, Y1, Y1
	XORQ         AX, AX

group:
	CMPQ      AX, CX
	JGE       none
	VMOVUPD   (SI)(AX*8), Y2
	VCMPPD    $5, Y0, Y2, Y3 // NLT_US: !(x < floor)
	VSUBPD    Y2, Y2, Y4
	VCMPPD    $4, Y1, Y4, Y4 // NEQ_UQ: x-x != 0
	VORPD     Y4, Y3, Y3
	VMOVMSKPD Y3, BX
	TESTL     BX, BX
	JNZ       lane
	ADDQ      $4, AX
	JMP       group

lane:
	BSFL BX, BX
	ADDQ BX, AX

none:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
