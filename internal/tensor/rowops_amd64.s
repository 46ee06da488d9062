#include "textflag.h"

// AVX2 row kernels for rowops_amd64.go. Neither uses a fused multiply-add:
// each product is a VMULPD, rounded, and then added by a VADDPD, as the Go
// loops of rowops.go do element by element.

// func dot4AVX2(dst *[4]float64, x, m *float64, rows *[4]int32, n, ld int)
//
// Each step loads x[d:d+4] and multiplies it by the same four columns of
// every row, giving one product vector per row. A 4×4 transpose (unpack,
// then swap 128-bit halves) turns those into four vectors that each hold
// one column d+c of all four rows, and they are added to the accumulator
// Y0 for c = 0, 1, 2, 3 in turn. So lane j adds x[d]·rj[d] in ascending d,
// starting from +0: the scalar sum of dotRowsGo.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ rows+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ ld+40(FP), R12
	SHLQ $3, R12 // row stride in bytes

	// R8-R11: the four rows' addresses.
	MOVLQSX 0(BX), R8
	IMULQ   R12, R8
	ADDQ    DX, R8
	MOVLQSX 4(BX), R9
	IMULQ   R12, R9
	ADDQ    DX, R9
	MOVLQSX 8(BX), R10
	IMULQ   R12, R10
	ADDQ    DX, R10
	MOVLQSX 12(BX), R11
	IMULQ   R12, R11
	ADDQ    DX, R11

	SHRQ   $2, CX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0

dotloop:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  (R8)(AX*1), Y1, Y2  // row 0, columns d..d+3
	VMULPD  (R9)(AX*1), Y1, Y3  // row 1
	VMULPD  (R10)(AX*1), Y1, Y4 // row 2
	VMULPD  (R11)(AX*1), Y1, Y5 // row 3

	VUNPCKLPD  Y3, Y2, Y6        // r0[d] r1[d] r0[d+2] r1[d+2]
	VUNPCKHPD  Y3, Y2, Y7        // r0[d+1] r1[d+1] r0[d+3] r1[d+3]
	VUNPCKLPD  Y5, Y4, Y8        // r2[d] r3[d] r2[d+2] r3[d+2]
	VUNPCKHPD  Y5, Y4, Y9        // r2[d+1] r3[d+1] r2[d+3] r3[d+3]
	VPERM2F128 $0x20, Y8, Y6, Y2 // column d
	VPERM2F128 $0x20, Y9, Y7, Y3 // column d+1
	VPERM2F128 $0x31, Y8, Y6, Y4 // column d+2
	VPERM2F128 $0x31, Y9, Y7, Y5 // column d+3

	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y0, Y0

	ADDQ $32, AX
	DECQ CX
	JNZ  dotloop

	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func axpyRowsAVX2(acc, x, m *float64, rows *int32, coef *float64, k, n, ld int)
//
// For each row v in turn, with g its coefficient: acc += g·v with v's old
// value, then v += g·x, four columns a step.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ rows+24(FP), BX
	MOVQ coef+32(FP), R8
	MOVQ k+40(FP), R9
	MOVQ n+48(FP), R10
	SHRQ $2, R10
	MOVQ ld+56(FP), R12
	SHLQ $3, R12 // row stride in bytes

rowloop:
	MOVLQSX      (BX), R11
	IMULQ        R12, R11
	ADDQ         DX, R11 // the row's address
	VBROADCASTSD (R8), Y0
	MOVQ         R10, CX
	XORQ         AX, AX

colloop:
	VMOVUPD (R11)(AX*1), Y1
	VMOVUPD (DI)(AX*1), Y2
	VMULPD  Y1, Y0, Y3         // g·v
	VADDPD  Y3, Y2, Y2         // acc + g·v
	VMOVUPD Y2, (DI)(AX*1)
	VMULPD  (SI)(AX*1), Y0, Y4 // g·x
	VADDPD  Y4, Y1, Y1         // v + g·x
	VMOVUPD Y1, (R11)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     colloop

	ADDQ $4, BX
	ADDQ $8, R8
	DECQ R9
	JNZ  rowloop

	VZEROUPPER
	RET
