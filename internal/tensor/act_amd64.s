#include "textflag.h"

// AVX2 + FMA activation kernels for act_amd64.go, four float64 lanes at a
// time. Each lane computes what the scalar Go code computes, bit for bit:
//
//	sigmoidAVX2  1 / (1 + math.Exp(-x))
//	tanhAVX2     math.Tanh(x)
//
// negSampleAVX2, at the end, applies one skip-gram step through the same
// sigmoid (negsample_amd64.go).
//
// EXP below is math.Exp's avxfma path ($GOROOT/src/math/exp_amd64.s),
// step for step: the same operations, in the same order, with a fused
// multiply-add exactly where that file has one (the two VFNMADD231 of the
// ln 2 reduction, the Horner chain and the last squaring) and a separately
// rounded VMULPD / VADDPD everywhere else. The scalar code's branches
// become blends, applied in an order that gives each lane the branch the
// scalar code takes (k = round(x·log2 e) from VCVTPD2DQ, which rounds by
// MXCSR like CVTSD2SL and also gives 0x80000000 out of range):
//
//	e = k+1023 in 1..2046      y · 2^k
//	e in −52..0                y · 2^(k+1022) · 2^−1022 (subnormal result)
//	e < −52                    +0, which covers −Inf
//	e ≥ 2047 or x > Overflow   +Inf, which covers +Inf
//	x NaN                      x, payload and all
//
// Tanh is math.tanh, which is pure Go and never fused by the compiler:
// both of its branches run on every lane and a blend picks one per lane.

// SPLAT defines a 32-byte constant: v in all four lanes.
#define SPLAT(name, v) DATA name<>+0(SB)/8, v; DATA name<>+8(SB)/8, v; DATA name<>+16(SB)/8, v; DATA name<>+24(SB)/8, v; GLOBL name<>(SB), RODATA|NOPTR, $32

// math.Exp's constants, written as exp_amd64.s writes them.
SPLAT(expLog2e, $1.4426950408889634073599246810018920)
SPLAT(expLn2U, $0.69314718055966295651160180568695068359375)
SPLAT(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
SPLAT(expOverflow, $7.09782712893384e+02)
SPLAT(expSixteenth, $0.0625)
SPLAT(expC7, $2.4801587301587301587e-5)
SPLAT(expC6, $1.9841269841269841270e-4)
SPLAT(expC5, $1.3888888888888888889e-3)
SPLAT(expC4, $8.3333333333333333333e-3)
SPLAT(expC3, $4.1666666666666666667e-2)
SPLAT(expC2, $1.6666666666666666667e-1)
SPLAT(half, $0.5)
SPLAT(one, $1.0)
SPLAT(two, $2.0)
SPLAT(posInf, $0x7FF0000000000000)
SPLAT(signBit, $0x8000000000000000)
SPLAT(absMask, $0x7FFFFFFFFFFFFFFF)

// Exponent assembly, as 64-bit integers: the bias, the re-bias of the
// subnormal path, the largest finite biased exponent, −53, and 2^−1022.
SPLAT(expBias, $1023)
SPLAT(expDenBias, $1022)
SPLAT(expMaxE, $2046)
SPLAT(expMinE, $-53)
SPLAT(expTiny, $0x0010000000000000)

// math.tanh's constants: 0.5·MAXLOG, the branch point, tanhP and tanhQ.
SPLAT(tanhMax, $44.014845965556527147994)
SPLAT(tanhMid, $0.625)
SPLAT(tanhP0, $-9.64399179425052238628e-1)
SPLAT(tanhP1, $-9.92877231001918586564e1)
SPLAT(tanhP2, $-1.61468768441708447952e3)
SPLAT(tanhQ0, $1.12811678491632931402e2)
SPLAT(tanhQ1, $2.23548839060100448583e3)
SPLAT(tanhQ2, $4.84406305325125486048e3)

// EXP sets Y3 = math.Exp(Y0) lane by lane. It clobbers Y1, Y2 and Y4-Y8.
// The comments give the exp_amd64.s instruction each line stands for.
#define EXP \
	VMULPD       expLog2e<>(SB), Y0, Y1;     /* MULSD X0, X1 (X1 = LOG2E) */ \
	VCVTPD2DQY   Y1, X2;                     /* CVTSD2SL X1, BX: k */ \
	VCVTDQ2PD    X2, Y1;                     /* CVTSL2SD BX, X1 */ \
	VMOVAPD      Y0, Y3; \
	VFNMADD231PD expLn2U<>(SB), Y1, Y3;      /* VFNMADD231SD X2, X1, X0 */ \
	VFNMADD231PD expLn2L<>(SB), Y1, Y3; \
	VMULPD       expSixteenth<>(SB), Y3, Y3; /* MULSD $0.0625, X0 */ \
	VMOVUPD      expC7<>(SB), Y4; \
	VFMADD213PD  expC6<>(SB), Y3, Y4;        /* VFMADD213SD c, X0, X1 */ \
	VFMADD213PD  expC5<>(SB), Y3, Y4; \
	VFMADD213PD  expC4<>(SB), Y3, Y4; \
	VFMADD213PD  expC3<>(SB), Y3, Y4; \
	VFMADD213PD  expC2<>(SB), Y3, Y4; \
	VFMADD213PD  half<>(SB), Y3, Y4; \
	VFMADD213PD  one<>(SB), Y3, Y4; \
	VMULPD       Y4, Y3, Y3;                 /* MULSD X1, X0 */ \
	VADDPD       two<>(SB), Y3, Y4;          /* VADDSD 2, X0, X1 */ \
	VMULPD       Y4, Y3, Y3; \
	VADDPD       two<>(SB), Y3, Y4; \
	VMULPD       Y4, Y3, Y3; \
	VADDPD       two<>(SB), Y3, Y4; \
	VMULPD       Y4, Y3, Y3; \
	VADDPD       two<>(SB), Y3, Y4; \
	VFMADD213PD  one<>(SB), Y4, Y3;          /* VFMADD213SD 1, X1, X0 */ \
	VPMOVSXDQ    X2, Y5; \
	VPADDQ       expBias<>(SB), Y5, Y5;      /* ADDL $0x3FF, BX: e */ \
	VPXOR        Y6, Y6, Y6; \
	VPCMPGTQ     Y6, Y5, Y6;                 /* e > 0: not denormal */ \
	VPANDN       expDenBias<>(SB), Y6, Y7; \
	VPADDQ       Y5, Y7, Y7; \
	VPSLLQ       $52, Y7, Y7; \
	VMULPD       Y7, Y3, Y3;                 /* MULSD X1, X0: 2^k or 2^(k+1022) */ \
	VMOVUPD      expTiny<>(SB), Y8; \
	VBLENDVPD    Y6, one<>(SB), Y8, Y7; \
	VMULPD       Y7, Y3, Y3;                 /* denormal's lastStep: ·2^-1022 */ \
	VMOVDQU      expMinE<>(SB), Y7; \
	VPCMPGTQ     Y5, Y7, Y7;                 /* e < -52: underflow */ \
	VANDNPD      Y3, Y7, Y3; \
	VPCMPGTQ     expMaxE<>(SB), Y5, Y7;      /* e ≥ 2047 */ \
	VCMPPD       $0x1e, expOverflow<>(SB), Y0, Y8; /* x > Overflow */ \
	VORPD        Y8, Y7, Y7; \
	VBLENDVPD    Y7, posInf<>(SB), Y3, Y3; \
	VCMPPD       $3, Y0, Y0, Y8;             /* x NaN */ \
	VBLENDVPD    Y8, Y0, Y3, Y3

// func sigmoidAVX2(dst, src []float64)
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	JZ   sigdone

sigloop:
	VMOVUPD (SI), Y0
	VXORPD  signBit<>(SB), Y0, Y0 // -x
	EXP
	VADDPD  one<>(SB), Y3, Y3     // 1 + e
	VMOVUPD one<>(SB), Y1
	VDIVPD  Y3, Y1, Y3            // 1 / (1 + e)
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     sigloop

sigdone:
	VZEROUPPER
	RET

// func tanhAVX2(dst, src []float64)
//
// Y9 x, Y10 z = |x|, Y11 x's sign bit, Y12 the exp branch, Y3 the result.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	JZ   tanhdone

tanhloop:
	VMOVUPD (SI), Y9
	VANDPD  absMask<>(SB), Y9, Y10
	VANDPD  signBit<>(SB), Y9, Y11

	// z ≥ 0.625: 1 - 2/(Exp(2z)+1), negated when x < 0.
	VADDPD  Y10, Y10, Y0
	EXP
	VADDPD  one<>(SB), Y3, Y3
	VMOVUPD two<>(SB), Y1
	VDIVPD  Y3, Y1, Y3
	VMOVUPD one<>(SB), Y1
	VSUBPD  Y3, Y1, Y3
	VXORPD  Y11, Y3, Y12

	// Otherwise x + x·s·P(s)/Q(s), s = x².
	VMULPD Y9, Y9, Y0
	VMULPD tanhP0<>(SB), Y0, Y1
	VADDPD tanhP1<>(SB), Y1, Y1
	VMULPD Y0, Y1, Y1
	VADDPD tanhP2<>(SB), Y1, Y1
	VADDPD tanhQ0<>(SB), Y0, Y2
	VMULPD Y0, Y2, Y2
	VADDPD tanhQ1<>(SB), Y2, Y2
	VMULPD Y0, Y2, Y2
	VADDPD tanhQ2<>(SB), Y2, Y2
	VMULPD Y0, Y9, Y3
	VMULPD Y1, Y3, Y3
	VDIVPD Y2, Y3, Y3
	VADDPD Y3, Y9, Y3

	// Pick per lane: the exp branch, then ±1, then x itself for ±0.
	VCMPPD    $0x1d, tanhMid<>(SB), Y10, Y4 // z ≥ 0.625
	VBLENDVPD Y4, Y12, Y3, Y3
	VCMPPD    $0x1e, tanhMax<>(SB), Y10, Y4 // z > 0.5·MAXLOG
	VORPD     one<>(SB), Y11, Y5
	VBLENDVPD Y4, Y5, Y3, Y3
	VXORPD    Y5, Y5, Y5
	VCMPPD    $0, Y5, Y9, Y4                // x == 0
	VBLENDVPD Y4, Y9, Y3, Y3

	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     tanhloop

tanhdone:
	VZEROUPPER
	RET

// ROW computes the address of the row whose index is at off(BX): m (DX)
// plus the index times the row stride (R12), into reg.
#define ROW(off, reg) MOVLQSX off(BX), reg; IMULQ R12, reg; ADDQ DX, reg

// UPD updates columns off..off+3 of the row at R8 with the coefficient in
// Y0 and the accumulator acc: acc += g·v with v's old value, then v += g·x.
#define UPD(off, acc) \
	VMOVUPD off(R8), Y1; \
	VMULPD  Y1, Y0, Y2;     /* g·v */ \
	VADDPD  Y2, acc, acc;   /* acc + g·v */ \
	VMULPD  off(DI), Y0, Y3; /* g·x */ \
	VADDPD  Y3, Y1, Y1;     /* v + g·x */ \
	VMOVUPD Y1, off(R8)

// APPLY sets x[off:off+4] += acc.
#define APPLY(off, acc) VMOVUPD off(DI), Y1; VADDPD acc, Y1, Y1; VMOVUPD Y1, off(DI)

// func negSampleAVX2(x, m *float64, rows, runs *int32, nruns, n int, lr float64, buf *float64)
//
// One skip-gram negative-sampling step (negsample.go), run by run. The
// dots take four rows at a time, one lane each, the last row repeated to
// fill the group: each step multiplies x[d:d+4] by the same four columns
// of every row, a 4×4 transpose (unpack, then swap 128-bit halves) turns
// the products into one vector per column, and those are added to Y0 in
// ascending column order, so each lane is the scalar sum from +0. The
// sigmoids are sigmoidAVX2's, the coefficients lr·(label − σ), and the
// updates acc += g·v, then v += g·x, row by row. No product is fused with
// its add. The rows of a run are distinct, so its dots may all be taken
// before its first update. The accumulator stays in Y12-Y15, one register
// per four columns; x is read from memory, since the dots and EXP need the
// other registers.
//
// DI x, DX m, BX the run's rows, R13 its length (in runs), R12 the row
// stride in bytes, SI the run's coefficients, CX a coefficient, R14 rows
// left, R8-R11 row addresses, AX a column offset in bytes. Y9 is the label
// vector (lane 0 is 1 for the pair's first row), Y11 lr.
TEXT ·negSampleAVX2(SB), NOSPLIT, $0-64
	MOVQ         x+0(FP), DI
	MOVQ         m+8(FP), DX
	MOVQ         rows+16(FP), BX
	MOVQ         runs+24(FP), R13
	MOVQ         n+40(FP), R12
	SHLQ         $3, R12
	VBROADCASTSD lr+48(FP), Y11
	MOVQ         buf+56(FP), SI

	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	VMOVSD one<>(SB), X9

nsrun:
	// Dots, into the coefficient slots.
	MOVQ    SI, CX
	MOVLQSX (R13), R14

nsgroup:
	ROW(0, R8)
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ R8, R11
	CMPQ R14, $2
	JLT  nsdot
	ROW(4, R9)
	MOVQ R9, R10
	MOVQ R9, R11
	CMPQ R14, $3
	JLT  nsdot
	ROW(8, R10)
	MOVQ R10, R11
	CMPQ R14, $4
	JLT  nsdot
	ROW(12, R11)

nsdot:
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0

nsdotcol:
	VMOVUPD    (DI)(AX*1), Y1
	VMULPD     (R8)(AX*1), Y1, Y2
	VMULPD     (R9)(AX*1), Y1, Y3
	VMULPD     (R10)(AX*1), Y1, Y4
	VMULPD     (R11)(AX*1), Y1, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y10
	VPERM2F128 $0x20, Y8, Y6, Y2
	VPERM2F128 $0x20, Y10, Y7, Y3
	VPERM2F128 $0x31, Y8, Y6, Y4
	VPERM2F128 $0x31, Y10, Y7, Y5
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y0, Y0
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y0, Y0
	ADDQ       $32, AX
	CMPQ       AX, R12
	JNE        nsdotcol

	VMOVUPD Y0, (CX)
	ADDQ    $32, CX
	ADDQ    $16, BX
	SUBQ    $4, R14
	JGT     nsgroup

	// Coefficients, four at a time; BX back to the run's first row.
	MOVQ    SI, CX
	MOVLQSX (R13), R14
	LEAQ    3(R14), AX
	ANDQ    $-4, AX
	SHLQ    $2, AX
	SUBQ    AX, BX

nssig:
	VMOVUPD (CX), Y0
	VXORPD  signBit<>(SB), Y0, Y0
	EXP
	VADDPD  one<>(SB), Y3, Y3
	VMOVUPD one<>(SB), Y1
	VDIVPD  Y3, Y1, Y3            // σ
	VSUBPD  Y3, Y9, Y3            // label − σ
	VMULPD  Y3, Y11, Y3           // lr·(label − σ)
	VMOVUPD Y3, (CX)
	VXORPD  Y9, Y9, Y9            // later rows are negatives
	ADDQ    $32, CX
	SUBQ    $4, R14
	JGT     nssig

	// Updates, row by row.
	MOVQ    SI, CX
	MOVLQSX (R13), R14

nsrow:
	ROW(0, R8)
	VBROADCASTSD (CX), Y0
	UPD(0, Y12)
	CMPQ         R12, $32
	JEQ          nsnext
	UPD(32, Y13)
	CMPQ         R12, $64
	JEQ          nsnext
	UPD(64, Y14)
	CMPQ         R12, $96
	JEQ          nsnext
	UPD(96, Y15)

nsnext:
	ADDQ $4, BX
	ADDQ $8, CX
	DECQ R14
	JNZ  nsrow
	ADDQ $4, R13
	DECQ nruns+32(FP)
	JNZ  nsrun

	// x += acc.
	APPLY(0, Y12)
	CMPQ R12, $32
	JEQ  nsdone
	APPLY(32, Y13)
	CMPQ R12, $64
	JEQ  nsdone
	APPLY(64, Y14)
	CMPQ R12, $96
	JEQ  nsdone
	APPLY(96, Y15)

nsdone:
	VZEROUPPER
	RET
