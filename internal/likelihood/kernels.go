package likelihood

import (
	"math"

	"repro/internal/model"
)

// Pattern-loop kernels over the structure-of-arrays CLV layout.
//
// A CLV buffer holds four contiguous lanes of npad entries each — one
// lane per nucleotide state — so the per-site 4-state update is a
// straight-line loop over parallel arrays instead of a strided walk over
// interleaved [pattern*4+state] records. Each kernel body follows the
// same discipline:
//
//   - lanes are re-sliced to the exact segment length at the loop head,
//     so the compiler proves every index in bounds once and the loop
//     runs bounds-check-free (verified with -d=ssa/check_bce);
//   - the 16 transition-matrix coefficients are hoisted into locals
//     before the loop (gc performs no loop-invariant code motion, and
//     stores to the destination lanes would otherwise force a reload of
//     every coefficient on every pattern);
//   - the arithmetic per pattern is the exact expression the previous
//     interleaved kernels evaluated, in the same order, so float64
//     results are bit-identical to the pre-SoA engine.
//
// The kernels are generic over the CLV element type (clvFloat): pruning
// combines and rescaling run entirely in T, while every log-likelihood
// and derivative reduction converts T to float64 at the load and
// accumulates in float64 — identical math for T=float64, and much
// better-conditioned sums than float32 accumulation for T=float32.

// clvFloat is the element type of a conditional likelihood vector.
type clvFloat interface {
	float32 | float64
}

// lanes returns the four state lanes of a SoA CLV buffer restricted to
// the padded range [lo, lo+n).
func lanes[T clvFloat](clv []T, npad, lo, n int) (l0, l1, l2, l3 []T) {
	l0 = clv[lo : lo+n]
	l1 = clv[npad+lo : npad+lo+n]
	l2 = clv[2*npad+lo : 2*npad+lo+n]
	l3 = clv[3*npad+lo : 3*npad+lo+n]
	return
}

// segCombineFirst assigns dst = P·src over the padded range [lo, lo+n):
// the first child-edge combine of a Felsenstein pruning step.
func segCombineFirst[T clvFloat](dst, src []T, m *[4][4]T, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	s0, s1, s2, s3 := lanes(src, npad, lo, n)
	m00, m01, m02, m03 := m[0][0], m[0][1], m[0][2], m[0][3]
	m10, m11, m12, m13 := m[1][0], m[1][1], m[1][2], m[1][3]
	m20, m21, m22, m23 := m[2][0], m[2][1], m[2][2], m[2][3]
	m30, m31, m32, m33 := m[3][0], m[3][1], m[3][2], m[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 = s0[:len(d0)], s1[:len(d0)], s2[:len(d0)], s3[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		d0[i] = m00*c0 + m01*c1 + m02*c2 + m03*c3
		d1[i] = m10*c0 + m11*c1 + m12*c2 + m13*c3
		d2[i] = m20*c0 + m21*c1 + m22*c2 + m23*c3
		d3[i] = m30*c0 + m31*c1 + m32*c2 + m33*c3
	}
}

// segCombineMul multiplies dst *= P·src over the padded range
// [lo, lo+n): subsequent child-edge combines.
func segCombineMul[T clvFloat](dst, src []T, m *[4][4]T, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	s0, s1, s2, s3 := lanes(src, npad, lo, n)
	m00, m01, m02, m03 := m[0][0], m[0][1], m[0][2], m[0][3]
	m10, m11, m12, m13 := m[1][0], m[1][1], m[1][2], m[1][3]
	m20, m21, m22, m23 := m[2][0], m[2][1], m[2][2], m[2][3]
	m30, m31, m32, m33 := m[3][0], m[3][1], m[3][2], m[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 = s0[:len(d0)], s1[:len(d0)], s2[:len(d0)], s3[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		d0[i] *= m00*c0 + m01*c1 + m02*c2 + m03*c3
		d1[i] *= m10*c0 + m11*c1 + m12*c2 + m13*c3
		d2[i] *= m20*c0 + m21*c1 + m22*c2 + m23*c3
		d3[i] *= m30*c0 + m31*c1 + m32*c2 + m33*c3
	}
}

// segCombineFirstResc is segCombineFirst fused with rescaling and scale
// propagation: the final values are rescaled in registers before the
// single store, eliminating the separate read-modify-write rescale pass.
// The products are the same floating-point operations the unfused
// combine-then-rescale sequence performs, so results are bit-identical.
func segCombineFirstResc[T clvFloat](dst, src []T, m *[4][4]T, dsc, ssc []int32, thresh, factor T, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	s0, s1, s2, s3 := lanes(src, npad, lo, n)
	m00, m01, m02, m03 := m[0][0], m[0][1], m[0][2], m[0][3]
	m10, m11, m12, m13 := m[1][0], m[1][1], m[1][2], m[1][3]
	m20, m21, m22, m23 := m[2][0], m[2][1], m[2][2], m[2][3]
	m30, m31, m32, m33 := m[3][0], m[3][1], m[3][2], m[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 = s0[:len(d0)], s1[:len(d0)], s2[:len(d0)], s3[:len(d0)]
	sd := dsc[lo : lo+n]
	sd = sd[:len(d0)]
	ss := ssc[lo : lo+n]
	ss = ss[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		v0 := m00*c0 + m01*c1 + m02*c2 + m03*c3
		v1 := m10*c0 + m11*c1 + m12*c2 + m13*c3
		v2 := m20*c0 + m21*c1 + m22*c2 + m23*c3
		v3 := m30*c0 + m31*c1 + m32*c2 + m33*c3
		sc := ss[i]
		mx := v0
		if v1 > mx {
			mx = v1
		}
		if v2 > mx {
			mx = v2
		}
		if v3 > mx {
			mx = v3
		}
		if mx < thresh && mx > 0 {
			v0 *= factor
			v1 *= factor
			v2 *= factor
			v3 *= factor
			sc++
		}
		d0[i], d1[i], d2[i], d3[i] = v0, v1, v2, v3
		sd[i] = sc
	}
}

// segCombineMulResc is segCombineMul fused with rescaling and scale
// accumulation, used for the last child combine of a pruning step.
func segCombineMulResc[T clvFloat](dst, src []T, m *[4][4]T, dsc, ssc []int32, thresh, factor T, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	s0, s1, s2, s3 := lanes(src, npad, lo, n)
	m00, m01, m02, m03 := m[0][0], m[0][1], m[0][2], m[0][3]
	m10, m11, m12, m13 := m[1][0], m[1][1], m[1][2], m[1][3]
	m20, m21, m22, m23 := m[2][0], m[2][1], m[2][2], m[2][3]
	m30, m31, m32, m33 := m[3][0], m[3][1], m[3][2], m[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	s0, s1, s2, s3 = s0[:len(d0)], s1[:len(d0)], s2[:len(d0)], s3[:len(d0)]
	sd := dsc[lo : lo+n]
	sd = sd[:len(d0)]
	ss := ssc[lo : lo+n]
	ss = ss[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := s0[i], s1[i], s2[i], s3[i]
		v0 := d0[i] * (m00*c0 + m01*c1 + m02*c2 + m03*c3)
		v1 := d1[i] * (m10*c0 + m11*c1 + m12*c2 + m13*c3)
		v2 := d2[i] * (m20*c0 + m21*c1 + m22*c2 + m23*c3)
		v3 := d3[i] * (m30*c0 + m31*c1 + m32*c2 + m33*c3)
		sc := sd[i] + ss[i]
		mx := v0
		if v1 > mx {
			mx = v1
		}
		if v2 > mx {
			mx = v2
		}
		if v3 > mx {
			mx = v3
		}
		if mx < thresh && mx > 0 {
			v0 *= factor
			v1 *= factor
			v2 *= factor
			v3 *= factor
			sc++
		}
		d0[i], d1[i], d2[i], d3[i] = v0, v1, v2, v3
		sd[i] = sc
	}
}

// segCombine2 performs a complete binary pruning step in one pass:
// dst = (Ma·a) ⊙ (Mb·b), with underflow rescaling and scale-count
// accumulation fused in. Inner nodes of a bifurcating tree have exactly
// two children, so this kernel computes their CLV without ever storing
// (or re-loading) the intermediate first-child product — the values
// stay in registers between the two matrix applications. The products
// are the same floating-point operations the first/mul kernel pair
// performs, so results are bit-identical.
func segCombine2[T clvFloat](dst, a, b []T, ma, mb *[4][4]T, dsc, asc, bsc []int32,
	thresh, factor T, npad, lo, n int) {
	d0, d1, d2, d3 := lanes(dst, npad, lo, n)
	a0, a1, a2, a3 := lanes(a, npad, lo, n)
	b0, b1, b2, b3 := lanes(b, npad, lo, n)
	p00, p01, p02, p03 := ma[0][0], ma[0][1], ma[0][2], ma[0][3]
	p10, p11, p12, p13 := ma[1][0], ma[1][1], ma[1][2], ma[1][3]
	p20, p21, p22, p23 := ma[2][0], ma[2][1], ma[2][2], ma[2][3]
	p30, p31, p32, p33 := ma[3][0], ma[3][1], ma[3][2], ma[3][3]
	q00, q01, q02, q03 := mb[0][0], mb[0][1], mb[0][2], mb[0][3]
	q10, q11, q12, q13 := mb[1][0], mb[1][1], mb[1][2], mb[1][3]
	q20, q21, q22, q23 := mb[2][0], mb[2][1], mb[2][2], mb[2][3]
	q30, q31, q32, q33 := mb[3][0], mb[3][1], mb[3][2], mb[3][3]
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	a0, a1, a2, a3 = a0[:len(d0)], a1[:len(d0)], a2[:len(d0)], a3[:len(d0)]
	b0, b1, b2, b3 = b0[:len(d0)], b1[:len(d0)], b2[:len(d0)], b3[:len(d0)]
	sd := dsc[lo : lo+n]
	sd = sd[:len(d0)]
	sa := asc[lo : lo+n]
	sa = sa[:len(d0)]
	sb := bsc[lo : lo+n]
	sb = sb[:len(d0)]
	for i := range d0 {
		c0, c1, c2, c3 := a0[i], a1[i], a2[i], a3[i]
		e0, e1, e2, e3 := b0[i], b1[i], b2[i], b3[i]
		v0 := (p00*c0 + p01*c1 + p02*c2 + p03*c3) * (q00*e0 + q01*e1 + q02*e2 + q03*e3)
		v1 := (p10*c0 + p11*c1 + p12*c2 + p13*c3) * (q10*e0 + q11*e1 + q12*e2 + q13*e3)
		v2 := (p20*c0 + p21*c1 + p22*c2 + p23*c3) * (q20*e0 + q21*e1 + q22*e2 + q23*e3)
		v3 := (p30*c0 + p31*c1 + p32*c2 + p33*c3) * (q30*e0 + q31*e1 + q32*e2 + q33*e3)
		sc := sa[i] + sb[i]
		mx := v0
		if v1 > mx {
			mx = v1
		}
		if v2 > mx {
			mx = v2
		}
		if v3 > mx {
			mx = v3
		}
		if mx < thresh && mx > 0 {
			v0 *= factor
			v1 *= factor
			v2 *= factor
			v3 *= factor
			sc++
		}
		d0[i], d1[i], d2[i], d3[i] = v0, v1, v2, v3
		sd[i] = sc
	}
}

// segEdgeLnL accumulates the weighted root log-likelihood over
// [lo, lo+n) into acc and returns it. The accumulator threads through
// the caller's segment loop so the summation order over a shard is one
// unbroken pattern sequence, exactly as the interleaved kernel summed.
func segEdgeLnL[T clvFloat](aclv, bclv []T, asc, bsc []int32, w []float64,
	pm *model.PMatrix, f *[4]float64, logSc float64, npad, lo, n int, acc float64) float64 {
	a0, a1, a2, a3 := lanes(aclv, npad, lo, n)
	b0l, b1l, b2l, b3l := lanes(bclv, npad, lo, n)
	m00, m01, m02, m03 := pm[0][0], pm[0][1], pm[0][2], pm[0][3]
	m10, m11, m12, m13 := pm[1][0], pm[1][1], pm[1][2], pm[1][3]
	m20, m21, m22, m23 := pm[2][0], pm[2][1], pm[2][2], pm[2][3]
	m30, m31, m32, m33 := pm[3][0], pm[3][1], pm[3][2], pm[3][3]
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	b0l, b1l, b2l, b3l = b0l[:len(a0)], b1l[:len(a0)], b2l[:len(a0)], b3l[:len(a0)]
	wv := w[lo : lo+n]
	wv = wv[:len(a0)]
	sa := asc[lo : lo+n]
	sa = sa[:len(a0)]
	sb := bsc[lo : lo+n]
	sb = sb[:len(a0)]
	for i := range a0 {
		b0, b1, b2, b3 := float64(b0l[i]), float64(b1l[i]), float64(b2l[i]), float64(b3l[i])
		lkl := 0.0
		lkl += f0 * float64(a0[i]) * (m00*b0 + m01*b1 + m02*b2 + m03*b3)
		lkl += f1 * float64(a1[i]) * (m10*b0 + m11*b1 + m12*b2 + m13*b3)
		lkl += f2 * float64(a2[i]) * (m20*b0 + m21*b1 + m22*b2 + m23*b3)
		lkl += f3 * float64(a3[i]) * (m30*b0 + m31*b1 + m32*b2 + m33*b3)
		if lkl <= 0 {
			lkl = math.SmallestNonzeroFloat64
		}
		acc += wv[i] * (math.Log(lkl) - float64(sa[i]+sb[i])*logSc)
	}
	return acc
}

// gradAcc carries the two gradient reduction accumulators through a
// shard's segment loop.
type gradAcc struct {
	d1, d2 float64
}

// segDerivGrad accumulates the weighted first/second log-likelihood
// derivatives over [lo, lo+n). The scale counts cancel in the dl/l and
// ddl/l ratios and a per-pattern math.Log is needed only for the
// likelihood value itself, so the derivative reduction loads no scale
// vectors and calls no transcendentals — that is what keeps a Newton
// iterate, and the all-branches gradient pass, cheap.
func segDerivGrad[T clvFloat](aclv, bclv []T, w []float64,
	pm, dm, ddm *model.PMatrix, f *[4]float64, npad, lo, n int, acc gradAcc) gradAcc {
	a0, a1, a2, a3 := lanes(aclv, npad, lo, n)
	b0l, b1l, b2l, b3l := lanes(bclv, npad, lo, n)
	m00, m01, m02, m03 := pm[0][0], pm[0][1], pm[0][2], pm[0][3]
	m10, m11, m12, m13 := pm[1][0], pm[1][1], pm[1][2], pm[1][3]
	m20, m21, m22, m23 := pm[2][0], pm[2][1], pm[2][2], pm[2][3]
	m30, m31, m32, m33 := pm[3][0], pm[3][1], pm[3][2], pm[3][3]
	d00, d01, d02, d03 := dm[0][0], dm[0][1], dm[0][2], dm[0][3]
	d10, d11, d12, d13 := dm[1][0], dm[1][1], dm[1][2], dm[1][3]
	d20, d21, d22, d23 := dm[2][0], dm[2][1], dm[2][2], dm[2][3]
	d30, d31, d32, d33 := dm[3][0], dm[3][1], dm[3][2], dm[3][3]
	e00, e01, e02, e03 := ddm[0][0], ddm[0][1], ddm[0][2], ddm[0][3]
	e10, e11, e12, e13 := ddm[1][0], ddm[1][1], ddm[1][2], ddm[1][3]
	e20, e21, e22, e23 := ddm[2][0], ddm[2][1], ddm[2][2], ddm[2][3]
	e30, e31, e32, e33 := ddm[3][0], ddm[3][1], ddm[3][2], ddm[3][3]
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	b0l, b1l, b2l, b3l = b0l[:len(a0)], b1l[:len(a0)], b2l[:len(a0)], b3l[:len(a0)]
	wv := w[lo : lo+n]
	wv = wv[:len(a0)]
	for i := range a0 {
		b0, b1, b2, b3 := float64(b0l[i]), float64(b1l[i]), float64(b2l[i]), float64(b3l[i])
		fa0 := f0 * float64(a0[i])
		fa1 := f1 * float64(a1[i])
		fa2 := f2 * float64(a2[i])
		fa3 := f3 * float64(a3[i])
		var l, dl, ddl float64
		l += fa0 * (m00*b0 + m01*b1 + m02*b2 + m03*b3)
		dl += fa0 * (d00*b0 + d01*b1 + d02*b2 + d03*b3)
		ddl += fa0 * (e00*b0 + e01*b1 + e02*b2 + e03*b3)
		l += fa1 * (m10*b0 + m11*b1 + m12*b2 + m13*b3)
		dl += fa1 * (d10*b0 + d11*b1 + d12*b2 + d13*b3)
		ddl += fa1 * (e10*b0 + e11*b1 + e12*b2 + e13*b3)
		l += fa2 * (m20*b0 + m21*b1 + m22*b2 + m23*b3)
		dl += fa2 * (d20*b0 + d21*b1 + d22*b2 + d23*b3)
		ddl += fa2 * (e20*b0 + e21*b1 + e22*b2 + e23*b3)
		l += fa3 * (m30*b0 + m31*b1 + m32*b2 + m33*b3)
		dl += fa3 * (d30*b0 + d31*b1 + d32*b2 + d33*b3)
		ddl += fa3 * (e30*b0 + e31*b1 + e32*b2 + e33*b3)
		if l <= 0 {
			l = math.SmallestNonzeroFloat64
		}
		w := wv[i]
		r := dl / l
		acc.d1 += w * r
		acc.d2 += w * (ddl/l - r*r)
	}
	return acc
}

// segSiteLnL writes the per-pattern (unweighted) log-likelihoods over
// [lo, lo+n) into out at each pattern's original (pre-permutation)
// index, given by orig.
func segSiteLnL[T clvFloat](aclv, bclv []T, asc, bsc []int32, orig []int, out []float64,
	pm *model.PMatrix, f *[4]float64, logSc float64, npad, lo, n int) {
	a0, a1, a2, a3 := lanes(aclv, npad, lo, n)
	b0l, b1l, b2l, b3l := lanes(bclv, npad, lo, n)
	m00, m01, m02, m03 := pm[0][0], pm[0][1], pm[0][2], pm[0][3]
	m10, m11, m12, m13 := pm[1][0], pm[1][1], pm[1][2], pm[1][3]
	m20, m21, m22, m23 := pm[2][0], pm[2][1], pm[2][2], pm[2][3]
	m30, m31, m32, m33 := pm[3][0], pm[3][1], pm[3][2], pm[3][3]
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	b0l, b1l, b2l, b3l = b0l[:len(a0)], b1l[:len(a0)], b2l[:len(a0)], b3l[:len(a0)]
	og := orig[lo : lo+n]
	og = og[:len(a0)]
	sa := asc[lo : lo+n]
	sa = sa[:len(a0)]
	sb := bsc[lo : lo+n]
	sb = sb[:len(a0)]
	for i := range a0 {
		b0, b1, b2, b3 := float64(b0l[i]), float64(b1l[i]), float64(b2l[i]), float64(b3l[i])
		lkl := 0.0
		lkl += f0 * float64(a0[i]) * (m00*b0 + m01*b1 + m02*b2 + m03*b3)
		lkl += f1 * float64(a1[i]) * (m10*b0 + m11*b1 + m12*b2 + m13*b3)
		lkl += f2 * float64(a2[i]) * (m20*b0 + m21*b1 + m22*b2 + m23*b3)
		lkl += f3 * float64(a3[i]) * (m30*b0 + m31*b1 + m32*b2 + m33*b3)
		if lkl <= 0 {
			lkl = math.SmallestNonzeroFloat64
		}
		out[og[i]] = math.Log(lkl) - float64(sa[i]+sb[i])*logSc
	}
}

// addScale adds src scale counts into dst over [lo, lo+n) (subsequent
// combines accumulate the children's scaling events).
func addScale(dst, src []int32, lo, n int) {
	d := dst[lo : lo+n]
	s := src[lo : lo+n]
	s = s[:len(d)]
	for i := range d {
		d[i] += s[i]
	}
}
