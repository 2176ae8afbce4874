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

// func boundAVX(u, v, b *float32, out *float64, n, d int)
//
// Eight rows per pass, n a multiple of eight: boundGo's accumulators
// s0..s7 for row r of the pass are the eight lanes of Yr. Each chunk of
// eight query elements is loaded once and multiplied into the eight rows,
// whose adds are eight independent chains; the first chunk's products are
// the accumulators, as in boundGo. Row r is r row-lengths past the pass's
// cursor AX, so one cursor walks all eight. One reduce serves the eight
// rows: a VPERM2F128 and a VBLENDPS pair rows r and r+4 so that one add
// leaves s_l+s_(l+4) of row r in lanes 0..3 and of row r+4 in lanes 4..7;
// three VHADDPS then finish every row's tree in its own lane, r. The d mod
// 8 tail gathers one element of each row and adds in order, as boundGo
// does. Multiply and add stay separate: boundGo rounds every product to
// float32 on its own. The scores are widened to float64 on the way out.
// Every memory operand is VEX-encoded and so alignment-free; mapped rows
// are only 4-byte aligned.
TEXT ·boundAVX(SB), NOSPLIT, $0-48
	MOVQ u+0(FP), SI
	MOVQ v+8(FP), DI
	MOVQ b+16(FP), BX
	MOVQ out+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ d+40(FP), R10
	SHLQ $2, R10           // bytes in a row
	LEAQ (R10)(R10*2), R11 // three rows
	LEAQ (R10)(R10*4), R12 // five rows
	LEAQ (R11)(R10*4), R13 // seven rows

pass8:
	MOVQ   DI, AX // row 0's cursor
	MOVQ   SI, R8 // the query's
	MOVQ   d+40(FP), R9
	SHRQ   $3, R9 // whole chunks
	JNZ    first8
	VXORPS Y0, Y0, Y0 // no chunk: the tail adds onto +0
	JMP    tail8start

first8:
	VMOVUPS (R8), Y8
	VMULPS  (AX), Y8, Y0
	VMULPS  (AX)(R10*1), Y8, Y1
	VMULPS  (AX)(R10*2), Y8, Y2
	VMULPS  (AX)(R11*1), Y8, Y3
	VMULPS  (AX)(R10*4), Y8, Y4
	VMULPS  (AX)(R12*1), Y8, Y5
	VMULPS  (AX)(R11*2), Y8, Y6
	VMULPS  (AX)(R13*1), Y8, Y7
	ADDQ    $32, AX
	ADDQ    $32, R8
	DECQ    R9
	JZ      reduce8

chunk8:
	VMOVUPS (R8), Y8
	VMULPS  (AX), Y8, Y9
	VADDPS  Y9, Y0, Y0
	VMULPS  (AX)(R10*1), Y8, Y10
	VADDPS  Y10, Y1, Y1
	VMULPS  (AX)(R10*2), Y8, Y11
	VADDPS  Y11, Y2, Y2
	VMULPS  (AX)(R11*1), Y8, Y12
	VADDPS  Y12, Y3, Y3
	VMULPS  (AX)(R10*4), Y8, Y9
	VADDPS  Y9, Y4, Y4
	VMULPS  (AX)(R12*1), Y8, Y10
	VADDPS  Y10, Y5, Y5
	VMULPS  (AX)(R11*2), Y8, Y11
	VADDPS  Y11, Y6, Y6
	VMULPS  (AX)(R13*1), Y8, Y12
	VADDPS  Y12, Y7, Y7
	ADDQ    $32, AX
	ADDQ    $32, R8
	DECQ    R9
	JNZ     chunk8

reduce8:
	VPERM2F128 $0x21, Y4, Y0, Y8 // r0 s4..s7 | r4 s0..s3
	VBLENDPS   $0xf0, Y4, Y0, Y9 // r0 s0..s3 | r4 s4..s7
	VADDPS     Y9, Y8, Y0        // r0 s_l+s_(l+4) | r4 s_l+s_(l+4)
	VPERM2F128 $0x21, Y5, Y1, Y8
	VBLENDPS   $0xf0, Y5, Y1, Y9
	VADDPS     Y9, Y8, Y1        // rows 1 | 5
	VPERM2F128 $0x21, Y6, Y2, Y8
	VBLENDPS   $0xf0, Y6, Y2, Y9
	VADDPS     Y9, Y8, Y2        // rows 2 | 6
	VPERM2F128 $0x21, Y7, Y3, Y8
	VBLENDPS   $0xf0, Y7, Y3, Y9
	VADDPS     Y9, Y8, Y3        // rows 3 | 7
	VHADDPS    Y1, Y0, Y0        // rows 0, 0, 1, 1 | 4, 4, 5, 5: (s0+s4)+(s1+s5), (s2+s6)+(s3+s7)
	VHADDPS    Y3, Y2, Y2        // rows 2, 2, 3, 3 | 6, 6, 7, 7
	VHADDPS    Y2, Y0, Y0        // rows 0..7, each tree whole

tail8start:
	MOVQ d+40(FP), R9
	ANDQ $7, R9
	JZ   bias8

tail8:
	VMOVSS       (AX), X9 // gather one element of the eight rows
	VINSERTPS    $0x10, (AX)(R10*1), X9, X9
	VINSERTPS    $0x20, (AX)(R10*2), X9, X9
	VINSERTPS    $0x30, (AX)(R11*1), X9, X9
	VMOVSS       (AX)(R10*4), X10
	VINSERTPS    $0x10, (AX)(R12*1), X10, X10
	VINSERTPS    $0x20, (AX)(R11*2), X10, X10
	VINSERTPS    $0x30, (AX)(R13*1), X10, X10
	VINSERTF128  $1, X10, Y9, Y9
	VBROADCASTSS (R8), Y10
	VMULPS       Y10, Y9, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         $4, AX
	ADDQ         $4, R8
	DECQ         R9
	JNZ          tail8

bias8:
	TESTQ  BX, BX
	JZ     store8
	VADDPS (BX), Y0, Y0
	ADDQ   $32, BX

store8:
	VCVTPS2PD    X0, Y1
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X2, Y2
	VMOVUPD      Y1, (DX)
	VMOVUPD      Y2, 32(DX)
	ADDQ         $64, DX
	LEAQ         (DI)(R10*8), DI
	SUBQ         $8, CX
	JNZ          pass8
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
