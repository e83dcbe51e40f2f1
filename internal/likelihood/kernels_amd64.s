//go:build amd64

#include "textflag.h"

// func combine2AVX2(dst, a, b *float64, tab *[33][4]float64, dsc, asc, bsc *int32, groups, npad int) int
//
// Four patterns per iteration: dst = (Ma·a) ⊙ (Mb·b) with scale-count
// accumulation, bailing out (without storing) on any group where a
// pattern's lane maximum falls in (0, threshold) — or is NaN — so the
// scalar kernel handles every rescaling decision. Coefficients come
// pre-broadcast from tab (row r at byte offset 32*r: rows 0-15 Ma,
// 16-31 Mb, 32 threshold). Dot products are left-associated mul+add,
// no FMA, matching the scalar kernel bit for bit.
//
// Register map: DI=dst R8=a R9=b BX=tab R10=dsc R11=asc R12=bsc
// CX=groups DX=npad*8 R13=npad*16 R14=npad*24 AX=groups done
// Y0-Y3 input lanes, Y4-Y7 t then v, Y8/Y13 scratch, Y9-Y12 u,
// Y14 constant zero.
TEXT ·combine2AVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ tab+24(FP), BX
	MOVQ dsc+32(FP), R10
	MOVQ asc+40(FP), R11
	MOVQ bsc+48(FP), R12
	MOVQ groups+56(FP), CX
	MOVQ npad+64(FP), DX
	SHLQ $3, DX
	LEAQ (DX)(DX*1), R13
	LEAQ (DX)(DX*2), R14
	XORQ AX, AX
	VXORPD Y14, Y14, Y14
	TESTQ CX, CX
	JE   done

loop:
	// Load the four a-lanes for this group.
	VMOVUPD (R8), Y0
	VMOVUPD (R8)(DX*1), Y1
	VMOVUPD (R8)(R13*1), Y2
	VMOVUPD (R8)(R14*1), Y3

	// t_j = ((Ma[j][0]*a0 + Ma[j][1]*a1) + Ma[j][2]*a2) + Ma[j][3]*a3
	VMULPD (BX), Y0, Y4
	VMULPD 32(BX), Y1, Y8
	VADDPD Y8, Y4, Y4
	VMULPD 64(BX), Y2, Y8
	VADDPD Y8, Y4, Y4
	VMULPD 96(BX), Y3, Y8
	VADDPD Y8, Y4, Y4

	VMULPD 128(BX), Y0, Y5
	VMULPD 160(BX), Y1, Y8
	VADDPD Y8, Y5, Y5
	VMULPD 192(BX), Y2, Y8
	VADDPD Y8, Y5, Y5
	VMULPD 224(BX), Y3, Y8
	VADDPD Y8, Y5, Y5

	VMULPD 256(BX), Y0, Y6
	VMULPD 288(BX), Y1, Y8
	VADDPD Y8, Y6, Y6
	VMULPD 320(BX), Y2, Y8
	VADDPD Y8, Y6, Y6
	VMULPD 352(BX), Y3, Y8
	VADDPD Y8, Y6, Y6

	VMULPD 384(BX), Y0, Y7
	VMULPD 416(BX), Y1, Y8
	VADDPD Y8, Y7, Y7
	VMULPD 448(BX), Y2, Y8
	VADDPD Y8, Y7, Y7
	VMULPD 480(BX), Y3, Y8
	VADDPD Y8, Y7, Y7

	// Load the four b-lanes, reusing Y0-Y3.
	VMOVUPD (R9), Y0
	VMOVUPD (R9)(DX*1), Y1
	VMOVUPD (R9)(R13*1), Y2
	VMOVUPD (R9)(R14*1), Y3

	// u_j = ((Mb[j][0]*b0 + Mb[j][1]*b1) + Mb[j][2]*b2) + Mb[j][3]*b3
	VMULPD 512(BX), Y0, Y9
	VMULPD 544(BX), Y1, Y13
	VADDPD Y13, Y9, Y9
	VMULPD 576(BX), Y2, Y13
	VADDPD Y13, Y9, Y9
	VMULPD 608(BX), Y3, Y13
	VADDPD Y13, Y9, Y9

	VMULPD 640(BX), Y0, Y10
	VMULPD 672(BX), Y1, Y13
	VADDPD Y13, Y10, Y10
	VMULPD 704(BX), Y2, Y13
	VADDPD Y13, Y10, Y10
	VMULPD 736(BX), Y3, Y13
	VADDPD Y13, Y10, Y10

	VMULPD 768(BX), Y0, Y11
	VMULPD 800(BX), Y1, Y13
	VADDPD Y13, Y11, Y11
	VMULPD 832(BX), Y2, Y13
	VADDPD Y13, Y11, Y11
	VMULPD 864(BX), Y3, Y13
	VADDPD Y13, Y11, Y11

	VMULPD 896(BX), Y0, Y12
	VMULPD 928(BX), Y1, Y13
	VADDPD Y13, Y12, Y12
	VMULPD 960(BX), Y2, Y13
	VADDPD Y13, Y12, Y12
	VMULPD 992(BX), Y3, Y13
	VADDPD Y13, Y12, Y12

	// v_j = t_j * u_j
	VMULPD Y9, Y4, Y4
	VMULPD Y10, Y5, Y5
	VMULPD Y11, Y6, Y6
	VMULPD Y12, Y7, Y7

	// mx = max(v0..v3); a pattern is safe to store iff mx >= threshold
	// or mx <= 0 (ordered compares: NaN is unsafe and bails too).
	VMAXPD Y5, Y4, Y8
	VMAXPD Y7, Y6, Y13
	VMAXPD Y13, Y8, Y8
	VCMPPD $0x1d, 1024(BX), Y8, Y9 // GE_OQ: mx >= threshold
	VCMPPD $0x12, Y14, Y8, Y10     // LE_OQ: mx <= 0
	VORPD  Y10, Y9, Y9
	VMOVMSKPD Y9, R15
	CMPQ R15, $15
	JNE  done

	VMOVUPD Y4, (DI)
	VMOVUPD Y5, (DI)(DX*1)
	VMOVUPD Y6, (DI)(R13*1)
	VMOVUPD Y7, (DI)(R14*1)

	// dsc = asc + bsc (no rescale events in a stored group)
	VMOVDQU (R11), X13
	VMOVDQU (R12), X15
	VPADDD  X15, X13, X13
	VMOVDQU X13, (R10)

	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	INCQ AX
	CMPQ CX, AX
	JNE  loop

done:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET

// func foldAVX2(spec, a, b *float64, tab *foldTable, nk, groups, npad int)
//
// Four patterns per iteration: the a- and b-lanes are loaded once and
// all nk spectral lanes written from them (segFold makes one pass per
// lane). Lane 0 is ((f0*a0)*b0 + (f1*a1)*b1) + ...; lane k >= 1 is
// ((a0*r0 + a1*r1) + a2*r2) + a3*r3 with
// r_i = ((m_i0*b0 + m_i1*b1) + m_i2*b2) + m_i3*b3 — segFold's order,
// multiplies commuted only, no FMA. Coefficients come pre-broadcast from
// tab (foldTable: rows 0-3 pi, then 16 rows per term k, 512 bytes apart).
//
// Register map: DI=spec R8=a R9=b BX=tab R10=nk CX=groups DX=npad*8
// R13=npad*16 R14=npad*24, SI=term rows R11=term lane R12=terms left;
// Y0-Y3 a-lanes, Y4-Y7 b-lanes, Y8 lane sum, Y9 r_i or product, Y10
// scratch.
TEXT ·foldAVX2(SB), NOSPLIT, $0-56
	MOVQ spec+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ tab+24(FP), BX
	MOVQ nk+32(FP), R10
	MOVQ groups+40(FP), CX
	MOVQ npad+48(FP), DX
	SHLQ $3, DX
	LEAQ (DX)(DX*1), R13
	LEAQ (DX)(DX*2), R14
	TESTQ CX, CX
	JE   foldDone

foldLoop:
	VMOVUPD (R8), Y0
	VMOVUPD (R8)(DX*1), Y1
	VMOVUPD (R8)(R13*1), Y2
	VMOVUPD (R8)(R14*1), Y3
	VMOVUPD (R9), Y4
	VMOVUPD (R9)(DX*1), Y5
	VMOVUPD (R9)(R13*1), Y6
	VMOVUPD (R9)(R14*1), Y7

	// T = (((f0*a0)*b0 + (f1*a1)*b1) + (f2*a2)*b2) + (f3*a3)*b3
	VMULPD (BX), Y0, Y8
	VMULPD Y4, Y8, Y8
	VMULPD 32(BX), Y1, Y9
	VMULPD Y5, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMULPD 64(BX), Y2, Y9
	VMULPD Y6, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMULPD 96(BX), Y3, Y9
	VMULPD Y7, Y9, Y9
	VADDPD Y9, Y8, Y8
	VMOVUPD Y8, (DI)

	LEAQ 128(BX), SI
	MOVQ DI, R11
	LEAQ -1(R10), R12
	TESTQ R12, R12
	JLE  foldNext

foldTerm:
	ADDQ DX, R11

	// S_k = a0*r0, r0 = ((m00*b0 + m01*b1) + m02*b2) + m03*b3
	VMULPD (SI), Y4, Y9
	VMULPD 32(SI), Y5, Y10
	VADDPD Y10, Y9, Y9
	VMULPD 64(SI), Y6, Y10
	VADDPD Y10, Y9, Y9
	VMULPD 96(SI), Y7, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y9, Y0, Y8

	// S_k += a1*r1
	VMULPD 128(SI), Y4, Y9
	VMULPD 160(SI), Y5, Y10
	VADDPD Y10, Y9, Y9
	VMULPD 192(SI), Y6, Y10
	VADDPD Y10, Y9, Y9
	VMULPD 224(SI), Y7, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y9, Y1, Y9
	VADDPD Y9, Y8, Y8

	// S_k += a2*r2
	VMULPD 256(SI), Y4, Y9
	VMULPD 288(SI), Y5, Y10
	VADDPD Y10, Y9, Y9
	VMULPD 320(SI), Y6, Y10
	VADDPD Y10, Y9, Y9
	VMULPD 352(SI), Y7, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y9, Y2, Y9
	VADDPD Y9, Y8, Y8

	// S_k += a3*r3
	VMULPD 384(SI), Y4, Y9
	VMULPD 416(SI), Y5, Y10
	VADDPD Y10, Y9, Y9
	VMULPD 448(SI), Y6, Y10
	VADDPD Y10, Y9, Y9
	VMULPD 480(SI), Y7, Y10
	VADDPD Y10, Y9, Y9
	VMULPD Y9, Y3, Y9
	VADDPD Y9, Y8, Y8

	VMOVUPD Y8, (R11)
	ADDQ $512, SI
	DECQ R12
	JNE  foldTerm

foldNext:
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNE  foldLoop

foldDone:
	VZEROUPPER
	RET

// The eval's two constants: the likelihood floor (minSiteLik) and the
// reciprocal's numerator.
DATA evalFloor<>+0(SB)/8, $1e-300
GLOBL evalFloor<>(SB), RODATA|NOPTR, $8
DATA evalOne<>+0(SB)/8, $1.0
GLOBL evalOne<>(SB), RODATA|NOPTR, $8

// func specEvalAVX2(spec, w *float64, c *specCoef, nk, groups, npad int, acc *gradAcc)
//
// Four patterns per iteration: l, dl and ddl from the nk folded lanes
// (segSpecEval's sums), the floor, 1/l, r = dl/l and the two weighted
// terms w*r and w*(ddl/l - r*r) as 4-wide vectors; then each accumulator
// adds its four terms one pattern at a time, lanes 0, 1, 2, 3, which is
// gradAcc.add's order exactly. The floor is VMAXPD with the floor as
// the first source: max returns its second source when either is NaN,
// so a NaN l stays NaN, as under `if l < minSiteLik`. c is specCoef:
// rows x[k] at 32*k, g[k] at 128+32*k, h[k] at 256+32*k.
//
// Register map: DI=spec SI=w BX=c R10=nk CX=groups DX=npad*8
// R13=npad*16 R14=npad*24 R11=acc; Y0 l, Y1 dl, Y2 ddl, Y3 a spectral
// lane, Y4 product, Y5 w, Y6 1/l, Y7 r then w*r, Y8 the d2 term, Y9/Y10
// scratch, X12/X13 the d1/d2 accumulators, Y14 floor, Y15 one.
TEXT ·specEvalAVX2(SB), NOSPLIT, $0-56
	MOVQ spec+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ c+16(FP), BX
	MOVQ nk+24(FP), R10
	MOVQ groups+32(FP), CX
	MOVQ npad+40(FP), DX
	MOVQ acc+48(FP), R11
	SHLQ $3, DX
	LEAQ (DX)(DX*1), R13
	LEAQ (DX)(DX*2), R14
	VMOVSD (R11), X12
	VMOVSD 8(R11), X13
	VBROADCASTSD evalFloor<>(SB), Y14
	VBROADCASTSD evalOne<>(SB), Y15
	TESTQ CX, CX
	JE   evalDone

evalLoop:
	// k = 1: l = s0 + v1*x1, dl = v1*g1, ddl = v1*h1
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(DX*1), Y3
	VMULPD 32(BX), Y3, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 160(BX), Y3, Y1
	VMULPD 288(BX), Y3, Y2
	CMPQ R10, $2
	JLE  evalRecip

	// k = 2
	VMOVUPD (DI)(R13*1), Y3
	VMULPD 64(BX), Y3, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 192(BX), Y3, Y4
	VADDPD Y4, Y1, Y1
	VMULPD 320(BX), Y3, Y4
	VADDPD Y4, Y2, Y2
	CMPQ R10, $3
	JLE  evalRecip

	// k = 3
	VMOVUPD (DI)(R14*1), Y3
	VMULPD 96(BX), Y3, Y4
	VADDPD Y4, Y0, Y0
	VMULPD 224(BX), Y3, Y4
	VADDPD Y4, Y1, Y1
	VMULPD 352(BX), Y3, Y4
	VADDPD Y4, Y2, Y2

evalRecip:
	VMAXPD Y0, Y14, Y0 // l = floor > l ? floor : l
	VDIVPD Y0, Y15, Y6 // 1/l
	VMULPD Y6, Y1, Y7  // r = dl*(1/l)
	VMULPD Y6, Y2, Y8  // ddl*(1/l)
	VMULPD Y7, Y7, Y9  // r*r
	VSUBPD Y9, Y8, Y8
	VMOVUPD (SI), Y5
	VMULPD Y8, Y5, Y8 // w*(ddl/l - r*r)
	VMULPD Y7, Y5, Y7 // w*r

	// Ordered accumulation: lanes 0, 1, then the high half's 2, 3.
	VADDSD X7, X12, X12
	VADDSD X8, X13, X13
	VPERMILPD $1, X7, X9
	VPERMILPD $1, X8, X10
	VADDSD X9, X12, X12
	VADDSD X10, X13, X13
	VEXTRACTF128 $1, Y7, X7
	VEXTRACTF128 $1, Y8, X8
	VADDSD X7, X12, X12
	VADDSD X8, X13, X13
	VPERMILPD $1, X7, X9
	VPERMILPD $1, X8, X10
	VADDSD X9, X12, X12
	VADDSD X10, X13, X13

	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNE  evalLoop

evalDone:
	VMOVSD X12, (R11)
	VMOVSD X13, 8(R11)
	VZEROUPPER
	RET

// The edge log-likelihood's constants, one 32-byte row each (a value
// repeated four times, so every row is a vector memory operand): the
// floor, the masks and biases of the exponent split, and archLog's own
// literals (Go's math/log_amd64.s), written as it writes them.
#define LNLROW(row, v) \
	DATA lnlK<>+(32*row)(SB)/8, v; \
	DATA lnlK<>+(32*row+8)(SB)/8, v; \
	DATA lnlK<>+(32*row+16)(SB)/8, v; \
	DATA lnlK<>+(32*row+24)(SB)/8, v

LNLROW(0, $0x000FFFFFFFFFFFFF)  // mantissa mask
LNLROW(1, $0x3FE0000000000000)  // 0.5: f1's exponent, and hfsq's factor
LNLROW(2, $0x00000000000007FF)  // exponent field mask
LNLROW(3, $0x4330000000000000)  // 2^52
LNLROW(4, $0x43300000000003FE)  // 2^52 + 1022
LNLROW(5, $7.07106781186547524401e-01) // HSqrt2
LNLROW(6, $1.0)
LNLROW(7, $2.0)
LNLROW(8, $6.666666666666735130e-01)  // L1
LNLROW(9, $3.999999999940941908e-01)  // L2
LNLROW(10, $2.857142874366239149e-01) // L3
LNLROW(11, $2.222219843214978396e-01) // L4
LNLROW(12, $1.818357216161805012e-01) // L5
LNLROW(13, $1.531383769920937332e-01) // L6
LNLROW(14, $1.479819860511658591e-01) // L7
LNLROW(15, $6.93147180369123816490e-01) // Ln2Hi
LNLROW(16, $1.90821492927058770002e-10) // Ln2Lo
LNLROW(17, $0x7FEFFFFFFFFFFFFF) // largest finite: above it, +Inf and +NaN
LNLROW(18, $0x7FF8000000000001) // archLog's NaN for a negative argument
LNLROW(19, $0x0000000000000001) // SmallestNonzeroFloat64, the floor
GLOBL lnlK<>(SB), RODATA|NOPTR, $640

// func edgeLnLAVX2(a, b *float64, asc, bsc *int32, w *float64, tab *lnlTable, groups, npad int, acc float64) float64
//
// Four patterns per iteration, segEdgeLnL lane for lane:
//
//	lkl = 0 + (f_0·a_0)·dot_0 + … + (f_3·a_3)·dot_3, left-associated,
//	dot_j = ((P_j0·b_0 + P_j1·b_1) + P_j2·b_2) + P_j3·b_3;
//	lkl <= 0 becomes SmallestNonzeroFloat64 (LE_OQ: a NaN is kept);
//	term = w·(log(lkl) − float64(sa+sb)·logScale);
//
// then acc adds the four terms in pattern order, lanes 0, 1, 2, 3. The
// log is archLog's sequence run 4 wide: f1 = the mantissa under 0.5's
// exponent, k = exponent − 1022 (exact via the 2^52 bias, as CVTSL2SD
// is), archLog's "not less than" compare of √2/2 against f1 (so
// f1 = √2/2 also halves), s = f/(2+f) with VDIVPD, its L1–L7 polynomial
// and Ln2Hi/Ln2Lo tail in its operand order. Subnormals go through
// unnormalised, as in archLog. Its special cases are blends: +Inf and a
// positive NaN return x, a set sign bit returns NaN 0x7FF8000000000001;
// ±0 cannot reach it past the floor. tab is lnlTable: P at 32·(4j+k),
// π_j at 512+32j, logScale at 640.
//
// Register map: R8=a R9=b R10=asc R11=bsc SI=w BX=tab AX=constants
// CX=groups DX=npad*8 R13=npad*16 R14=npad*24; Y0 lkl then x, Y1 f,
// Y2 k then log then the term, Y3 s, Y4-Y6 scratch and masks, Y7 a
// permuted lane, Y8-Y11 b-lanes, Y12 dot, Y13 product, Y14 zero, X15
// the accumulator.
TEXT ·edgeLnLAVX2(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ asc+16(FP), R10
	MOVQ bsc+24(FP), R11
	MOVQ w+32(FP), SI
	MOVQ tab+40(FP), BX
	MOVQ groups+48(FP), CX
	MOVQ npad+56(FP), DX
	VMOVSD acc+64(FP), X15
	SHLQ $3, DX
	LEAQ (DX)(DX*1), R13
	LEAQ (DX)(DX*2), R14
	LEAQ lnlK<>(SB), AX
	VXORPD Y14, Y14, Y14
	TESTQ CX, CX
	JE   lnlDone

lnlLoop:
	VMOVUPD (R9), Y8
	VMOVUPD (R9)(DX*1), Y9
	VMOVUPD (R9)(R13*1), Y10
	VMOVUPD (R9)(R14*1), Y11
	VXORPD  Y0, Y0, Y0

	// lkl += (f0*a0) * dot_0
	VMULPD  (BX), Y8, Y12
	VMULPD  32(BX), Y9, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  64(BX), Y10, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  96(BX), Y11, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (R8), Y13
	VMULPD  512(BX), Y13, Y13
	VMULPD  Y12, Y13, Y13
	VADDPD  Y13, Y0, Y0

	// lkl += (f1*a1) * dot_1
	VMULPD  128(BX), Y8, Y12
	VMULPD  160(BX), Y9, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  192(BX), Y10, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  224(BX), Y11, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (R8)(DX*1), Y13
	VMULPD  544(BX), Y13, Y13
	VMULPD  Y12, Y13, Y13
	VADDPD  Y13, Y0, Y0

	// lkl += (f2*a2) * dot_2
	VMULPD  256(BX), Y8, Y12
	VMULPD  288(BX), Y9, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  320(BX), Y10, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  352(BX), Y11, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (R8)(R13*1), Y13
	VMULPD  576(BX), Y13, Y13
	VMULPD  Y12, Y13, Y13
	VADDPD  Y13, Y0, Y0

	// lkl += (f3*a3) * dot_3
	VMULPD  384(BX), Y8, Y12
	VMULPD  416(BX), Y9, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  448(BX), Y10, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  480(BX), Y11, Y13
	VADDPD  Y13, Y12, Y12
	VMOVUPD (R8)(R14*1), Y13
	VMULPD  608(BX), Y13, Y13
	VMULPD  Y12, Y13, Y13
	VADDPD  Y13, Y0, Y0

	// if lkl <= 0 { lkl = SmallestNonzeroFloat64 }
	VCMPPD    $0x12, Y14, Y0, Y4 // LE_OQ
	VBLENDVPD Y4, 608(AX), Y0, Y0

	// f1 = mantissa | 0.5's exponent; k = exponent - 1022
	VANDPD  (AX), Y0, Y1
	VORPD   32(AX), Y1, Y1
	VPSRLQ  $52, Y0, Y2
	VPAND   64(AX), Y2, Y2
	VPOR    96(AX), Y2, Y2
	VSUBPD  128(AX), Y2, Y2

	// if !(√2/2 < f1) { k -= 1; f1 *= 2 }; f = f1 - 1
	VMOVUPD   160(AX), Y4
	VCMPPD    $5, Y1, Y4, Y4 // NLT_US: CMPSD's predicate 5
	VANDPD    192(AX), Y4, Y4
	VSUBPD    Y4, Y2, Y2
	VADDPD    192(AX), Y4, Y4
	VMULPD    Y4, Y1, Y1
	VSUBPD    192(AX), Y1, Y1

	// s = f/(2+f), s2 = s*s, s4 = s2*s2
	VADDPD  224(AX), Y1, Y4
	VDIVPD  Y4, Y1, Y3
	VMULPD  Y3, Y3, Y4
	VMULPD  Y4, Y4, Y5

	// t1 = s2*(L1 + s4*(L3 + s4*(L5 + s4*L7)))
	VMULPD  448(AX), Y5, Y6
	VADDPD  384(AX), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  320(AX), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  256(AX), Y6, Y6
	VMULPD  Y6, Y4, Y4

	// t2 = s4*(L2 + s4*(L4 + s4*L6)); R = t1 + t2
	VMULPD  416(AX), Y5, Y6
	VADDPD  352(AX), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  288(AX), Y6, Y6
	VMULPD  Y6, Y5, Y5
	VADDPD  Y5, Y4, Y4

	// hfsq = 0.5*f*f
	VMULPD  32(AX), Y1, Y5
	VMULPD  Y1, Y5, Y5

	// log = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD  Y5, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  512(AX), Y2, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y5, Y5
	VSUBPD  Y1, Y5, Y5
	VMULPD  480(AX), Y2, Y2
	VSUBPD  Y5, Y2, Y2

	// +Inf and +NaN return x; a set sign bit returns archLog's NaN.
	VPCMPGTQ  544(AX), Y0, Y4
	VBLENDVPD Y4, Y0, Y2, Y2
	VBLENDVPD Y0, 576(AX), Y2, Y2

	// term = w*(log - float64(sa+sb)*logScale)
	VMOVDQU   (R10), X4
	VMOVDQU   (R11), X5
	VPADDD    X5, X4, X4
	VCVTDQ2PD X4, Y4
	VMULPD    640(BX), Y4, Y4
	VSUBPD    Y4, Y2, Y2
	VMULPD    (SI), Y2, Y2

	// Ordered accumulation: lanes 0, 1, then the high half's 2, 3.
	VADDSD       X2, X15, X15
	VPERMILPD    $1, X2, X7
	VADDSD       X7, X15, X15
	VEXTRACTF128 $1, Y2, X2
	VADDSD       X2, X15, X15
	VPERMILPD    $1, X2, X7
	VADDSD       X7, X15, X15

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $32, SI
	DECQ CX
	JNE  lnlLoop

lnlDone:
	VZEROUPPER
	VMOVSD X15, ret+72(FP)
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
