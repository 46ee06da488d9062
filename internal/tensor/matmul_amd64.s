#include "textflag.h"

// AVX2 kernels, and one AVX-512F kernel, for matmul_amd64.go. Register use
// in the AVX2 kernels (vecMatF64AVX512 lists its Z registers above it):
//
//	DI out cursor     DX columns left   SI a      BX b column cursor
//	R8 a stride (B)   R9 b stride (B)   R10 k     CX p countdown
//	R11 a cursor      R12 b cursor      AX a's bits for the zero test
//	Y0-Y3 accumulators   Y4 a[p] broadcast   Y5-Y8 products   Y9-Y12 tail masks
//
// Every output column owns one accumulator lane that starts at +0 and
// takes, for p = 0, 1, ..., k-1, one multiply (VMULPD) and then one add
// (VADDPD) — the scalar Go sum, lane for lane. a[p] is skipped when it is
// ±0: shifting its bits left by one drops the sign, and only ±0 leave
// zero (NaN and subnormals do not), which is the Go test a != 0.
//
// The kernels take an add flag (R13). With it set, the store loads
// the output's old value g into Y5-Y8 (Z9-Z16) and writes g + acc, g the
// first source operand: one more IEEE add, the bits of g += acc.
//
// Full blocks are 128 bytes of columns (16 float64). The last 1 to 15
// columns run as one more block under a lane mask: VMASKMOVPD neither
// loads nor stores the lanes past the end, so those lanes only ever
// compute on zeros that nothing reads.

// tailMask is 128 bytes of ones then 128 bytes of zeros: the 128 bytes at
// offset 128-r are the lane mask of a block whose first r bytes are live.
DATA tailMask<>+0x00(SB)/8, $-1
DATA tailMask<>+0x08(SB)/8, $-1
DATA tailMask<>+0x10(SB)/8, $-1
DATA tailMask<>+0x18(SB)/8, $-1
DATA tailMask<>+0x20(SB)/8, $-1
DATA tailMask<>+0x28(SB)/8, $-1
DATA tailMask<>+0x30(SB)/8, $-1
DATA tailMask<>+0x38(SB)/8, $-1
DATA tailMask<>+0x40(SB)/8, $-1
DATA tailMask<>+0x48(SB)/8, $-1
DATA tailMask<>+0x50(SB)/8, $-1
DATA tailMask<>+0x58(SB)/8, $-1
DATA tailMask<>+0x60(SB)/8, $-1
DATA tailMask<>+0x68(SB)/8, $-1
DATA tailMask<>+0x70(SB)/8, $-1
DATA tailMask<>+0x78(SB)/8, $-1
DATA tailMask<>+0x80(SB)/8, $0
DATA tailMask<>+0x88(SB)/8, $0
DATA tailMask<>+0x90(SB)/8, $0
DATA tailMask<>+0x98(SB)/8, $0
DATA tailMask<>+0xa0(SB)/8, $0
DATA tailMask<>+0xa8(SB)/8, $0
DATA tailMask<>+0xb0(SB)/8, $0
DATA tailMask<>+0xb8(SB)/8, $0
DATA tailMask<>+0xc0(SB)/8, $0
DATA tailMask<>+0xc8(SB)/8, $0
DATA tailMask<>+0xd0(SB)/8, $0
DATA tailMask<>+0xd8(SB)/8, $0
DATA tailMask<>+0xe0(SB)/8, $0
DATA tailMask<>+0xe8(SB)/8, $0
DATA tailMask<>+0xf0(SB)/8, $0
DATA tailMask<>+0xf8(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $256

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

// func vecMatF64(out, a []float64, lda int, b []float64, ldb, k int, add bool)
TEXT ·vecMatF64(SB), NOSPLIT, $0-97
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ lda+48(FP), R8
	SHLQ $3, R8
	MOVQ b_base+56(FP), BX
	MOVQ ldb+80(FP), R9
	SHLQ $3, R9
	MOVQ k+88(FP), R10
	MOVBQZX add+96(FP), R13

block:
	CMPQ DX, $16
	JLT  tail
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R11
	MOVQ BX, R12
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   store

loop:
	MOVQ (R11), AX
	SHLQ $1, AX
	JZ   skip
	VBROADCASTSD (R11), Y4
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0
	VMULPD 32(R12), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R12), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R12), Y4, Y8
	VADDPD Y8, Y3, Y3

skip:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ CX
	JNZ  loop

store:
	TESTQ R13, R13
	JZ   put
	VMOVUPD (DI), Y5
	VADDPD Y0, Y5, Y0
	VMOVUPD 32(DI), Y6
	VADDPD Y1, Y6, Y1
	VMOVUPD 64(DI), Y7
	VADDPD Y2, Y7, Y2
	VMOVUPD 96(DI), Y8
	VADDPD Y3, Y8, Y3

put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, DX
	JMP  block

tail:
	TESTQ DX, DX
	JZ   done
	LEAQ tailMask<>+128(SB), AX
	SHLQ $3, DX
	SUBQ DX, AX
	VMOVDQU (AX), Y9
	VMOVDQU 32(AX), Y10
	VMOVDQU 64(AX), Y11
	VMOVDQU 96(AX), Y12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R11
	MOVQ BX, R12
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   tailstore

tailloop:
	MOVQ (R11), AX
	SHLQ $1, AX
	JZ   tailskip
	VBROADCASTSD (R11), Y4
	VMASKMOVPD (R12), Y9, Y5
	VMULPD Y5, Y4, Y5
	VADDPD Y5, Y0, Y0
	VMASKMOVPD 32(R12), Y10, Y6
	VMULPD Y6, Y4, Y6
	VADDPD Y6, Y1, Y1
	VMASKMOVPD 64(R12), Y11, Y7
	VMULPD Y7, Y4, Y7
	VADDPD Y7, Y2, Y2
	VMASKMOVPD 96(R12), Y12, Y8
	VMULPD Y8, Y4, Y8
	VADDPD Y8, Y3, Y3

tailskip:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ CX
	JNZ  tailloop

tailstore:
	TESTQ R13, R13
	JZ   tailput
	VMASKMOVPD (DI), Y9, Y5
	VADDPD Y0, Y5, Y0
	VMASKMOVPD 32(DI), Y10, Y6
	VADDPD Y1, Y6, Y1
	VMASKMOVPD 64(DI), Y11, Y7
	VADDPD Y2, Y7, Y2
	VMASKMOVPD 96(DI), Y12, Y8
	VADDPD Y3, Y8, Y3

tailput:
	VMASKMOVPD Y0, Y9, (DI)
	VMASKMOVPD Y1, Y10, 32(DI)
	VMASKMOVPD Y2, Y11, 64(DI)
	VMASKMOVPD Y3, Y12, 96(DI)

done:
	VZEROUPPER
	RET

// func vecMatF64AVX512(out, a []float64, lda int, b []float64, ldb, k int, add bool)
//
// vecMatF64 over the first len(out) &^ 63 columns only, in blocks of 64
// float64 (512 bytes) held in the eight ZMM accumulators Z0-Z7, with
// Z8 the a[p] broadcast and Z9-Z16 the products. The general registers,
// the zero test, each lane's multiply-then-add order and the add flag's
// store are vecMatF64's; only the block is four times wider. The columns
// past the last full block are left for vecMatF64.
TEXT ·vecMatF64AVX512(SB), NOSPLIT, $0-97
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), DX
	MOVQ a_base+24(FP), SI
	MOVQ lda+48(FP), R8
	SHLQ $3, R8
	MOVQ b_base+56(FP), BX
	MOVQ ldb+80(FP), R9
	SHLQ $3, R9
	MOVQ k+88(FP), R10
	MOVBQZX add+96(FP), R13

block:
	CMPQ DX, $64
	JLT  done
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ SI, R11
	MOVQ BX, R12
	MOVQ R10, CX
	TESTQ CX, CX
	JZ   store

loop:
	MOVQ (R11), AX
	SHLQ $1, AX
	JZ   skip
	VBROADCASTSD (R11), Z8
	VMULPD (R12), Z8, Z9
	VADDPD Z9, Z0, Z0
	VMULPD 64(R12), Z8, Z10
	VADDPD Z10, Z1, Z1
	VMULPD 128(R12), Z8, Z11
	VADDPD Z11, Z2, Z2
	VMULPD 192(R12), Z8, Z12
	VADDPD Z12, Z3, Z3
	VMULPD 256(R12), Z8, Z13
	VADDPD Z13, Z4, Z4
	VMULPD 320(R12), Z8, Z14
	VADDPD Z14, Z5, Z5
	VMULPD 384(R12), Z8, Z15
	VADDPD Z15, Z6, Z6
	VMULPD 448(R12), Z8, Z16
	VADDPD Z16, Z7, Z7

skip:
	ADDQ R8, R11
	ADDQ R9, R12
	DECQ CX
	JNZ  loop

store:
	TESTQ R13, R13
	JZ   put
	VMOVUPD (DI), Z9
	VADDPD Z0, Z9, Z0
	VMOVUPD 64(DI), Z10
	VADDPD Z1, Z10, Z1
	VMOVUPD 128(DI), Z11
	VADDPD Z2, Z11, Z2
	VMOVUPD 192(DI), Z12
	VADDPD Z3, Z12, Z3
	VMOVUPD 256(DI), Z13
	VADDPD Z4, Z13, Z4
	VMOVUPD 320(DI), Z14
	VADDPD Z5, Z14, Z5
	VMOVUPD 384(DI), Z15
	VADDPD Z6, Z15, Z6
	VMOVUPD 448(DI), Z16
	VADDPD Z7, Z16, Z7

put:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $512, BX
	SUBQ $64, DX
	JMP  block

done:
	VZEROUPPER
	RET

// func addF64(dst, src []float64)
//
// dst[i] += src[i] for i < len(dst) &^ 3, four lanes at a time, dst the
// first source operand; the caller adds the rest. len(src) >= len(dst).
TEXT ·addF64(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $2, CX
	JZ   adddone

addloop:
	VMOVUPD (DI), Y0
	VADDPD (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  addloop

adddone:
	VZEROUPPER
	RET
