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

// The derivative kernels: DNAml's makenewz in two stages. The transition
// matrix is the spectral sum P(z) = Σ_k C_k·e^{λ_k z} with Σ_k C_k = I,
// and while one edge is being solved its two partials A and B do not
// change, so with S_k[p] = Σ_ij π_i·A_p[i]·C_k[i][j]·B_p[j] the site
// likelihood of pattern p is
//
//	l_p(z) = Σ_k S_k[p]·e^{λ_k r z} = T[p] + Σ_{k≥1} S_k[p]·(e^{λ_k r z} − 1)
//
// where T[p] = Σ_k S_k[p] = Σ_i π_i·A_p[i]·B_p[i] is the likelihood at
// z = 0 and λ_0 = 0 drops out. segFold computes T and the K−1 ≤ 3
// spectral sums once per (A, B) pair into SoA float64 lanes; segSpecEval
// then produces l, dl/dz and d²l/dz² at any z from the lanes alone. The
// second form is the one evaluated: on patterns whose two sides disagree
// (T = 0) the first cancels to l ≈ z·const at short lengths, losing
// 1/z of relative accuracy exactly as Decomposition.Probs does, while
// expm1 keeps every term at full precision. Scale counts cancel in the
// dl/l and ddl/l ratios and only the likelihood value needs a logarithm,
// so neither stage loads scale vectors or calls a transcendental.

// Work units per pattern (multiply-adds, the unit combineInto's 16 and
// edgeLogLikelihood's 20 are counted in) of the two stages for a
// K-term decomposition: the fold's lane 0 is a 4-term sum of double
// products, each further lane a 4×4 product and a 4-term dot; an eval is
// three (K−1)-term sums plus the reciprocal, the two ratios, the square
// and the two weighted accumulations.
func foldOps(k int) uint64 { return uint64(8 + 20*(k-1)) }
func evalOps(k int) uint64 { return uint64(3*(k-1) + 6) }

// segFold folds (aclv, bclv) over the padded range [lo, lo+n) into the
// K = len(m) lanes of spec (lane k at k*npad): lane 0 receives T, lane
// k ≥ 1 the spectral sum S_k under m[k] = diag(π)·C_k (foldMatrices),
// each in its own pass over the segment with the 16 coefficients hoisted
// like every combine kernel. CLV elements are widened to float64 at the
// load.
func segFold[T clvFloat](spec []float64, aclv, bclv []T, m []model.PMatrix, f *[4]float64, npad, lo, n int) {
	a0, a1, a2, a3 := lanes(aclv, npad, lo, n)
	b0, b1, b2, b3 := lanes(bclv, npad, lo, n)
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	b0, b1, b2, b3 = b0[:len(a0)], b1[:len(a0)], b2[:len(a0)], b3[:len(a0)]
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	s := spec[lo : lo+n]
	s = s[:len(a0)]
	for i := range a0 {
		s[i] = f0*float64(a0[i])*float64(b0[i]) + f1*float64(a1[i])*float64(b1[i]) +
			f2*float64(a2[i])*float64(b2[i]) + f3*float64(a3[i])*float64(b3[i])
	}
	for k := 1; k < len(m); k++ {
		c := &m[k]
		m00, m01, m02, m03 := c[0][0], c[0][1], c[0][2], c[0][3]
		m10, m11, m12, m13 := c[1][0], c[1][1], c[1][2], c[1][3]
		m20, m21, m22, m23 := c[2][0], c[2][1], c[2][2], c[2][3]
		m30, m31, m32, m33 := c[3][0], c[3][1], c[3][2], c[3][3]
		s := spec[k*npad+lo : k*npad+lo+n]
		s = s[:len(a0)]
		for i := range a0 {
			y0, y1, y2, y3 := float64(b0[i]), float64(b1[i]), float64(b2[i]), float64(b3[i])
			s[i] = float64(a0[i])*(m00*y0+m01*y1+m02*y2+m03*y3) +
				float64(a1[i])*(m10*y0+m11*y1+m12*y2+m13*y3) +
				float64(a2[i])*(m20*y0+m21*y1+m22*y2+m23*y3) +
				float64(a3[i])*(m30*y0+m31*y1+m32*y2+m33*y3)
		}
	}
}

// foldMatrices returns diag(π)·C_k for the terms k ≥ 1 of the
// decomposition, the coefficient matrices segFold applies (entry 0 stays
// zero: lane 0 needs π alone). Computed once per engine.
func foldMatrices(d *model.Decomposition, f *[4]float64) []model.PMatrix {
	m := make([]model.PMatrix, len(d.Lambda))
	for k := 1; k < len(m); k++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				m[k][i][j] = f[i] * d.Coef[k][i][j]
			}
		}
	}
	return m
}

// specCoef holds one rate class's per-iterate eval coefficients for
// spectral term k ≥ 1 (index 0 is unused): x = e^{λ_k r z} − 1, and g, h
// the first two z-derivatives of e^{λ_k r z}.
type specCoef struct {
	x, g, h [4]float64
}

// fill evaluates the coefficients at branch length z and site rate r.
// It is shared by every in-tree engine, like newtonStep, so backends
// derive identical iterates from identical spectral sums.
func (c *specCoef) fill(lambda []float64, z, r float64) {
	for k := 1; k < len(lambda); k++ {
		l1, t := lambda[k]*r, lambda[k]*(z*r)
		e := math.Exp(t)
		c.x[k], c.g[k], c.h[k] = math.Expm1(t), l1*e, l1*l1*e
	}
}

// minSiteLik floors a pattern's likelihood before the reciprocal.
// Padding entries and fully underflowed patterns have every lane zero;
// the floor keeps 1/l finite so they contribute exactly 0, where
// 1/SmallestNonzeroFloat64 would be +Inf and 0·Inf a NaN.
const minSiteLik = 1e-300

// gradAcc carries the two gradient reduction accumulators through a
// shard's segment loop.
type gradAcc struct {
	d1, d2 float64
}

// add accumulates one pattern of weight w into d1 = Σ w·dl/l and
// d2 = Σ w·(ddl/l − (dl/l)²). The reference engine reduces through the
// same function.
func (acc gradAcc) add(w, l, dl, ddl float64) gradAcc {
	if l < minSiteLik {
		l = minSiteLik
	}
	inv := 1 / l
	r := dl * inv
	acc.d1 += w * r
	acc.d2 += w * (ddl*inv - r*r)
	return acc
}

// segSpecEval accumulates the weighted first/second log-likelihood
// derivatives over [lo, lo+n) from the K = nk folded lanes: 3·(K−1)
// multiply-adds and one reciprocal per pattern, whatever the model. There
// is one loop per K, the same left-to-right sums in each, because
// padding F84's three lanes to a fixed four costs 30 % per evaluation.
func segSpecEval(spec, w []float64, c *specCoef, nk, npad, lo, n int, acc gradAcc) gradAcc {
	s0 := spec[lo : lo+n]
	wv := w[lo : lo+n]
	wv = wv[:len(s0)]
	lane := func(k int) []float64 { return spec[k*npad+lo : k*npad+lo+n][:len(s0)] }
	x1, g1, h1 := c.x[1], c.g[1], c.h[1]
	x2, g2, h2 := c.x[2], c.g[2], c.h[2]
	x3, g3, h3 := c.x[3], c.g[3], c.h[3]
	switch nk {
	case 2:
		s1 := lane(1)
		for i := range s0 {
			v1 := s1[i]
			acc = acc.add(wv[i], s0[i]+v1*x1, v1*g1, v1*h1)
		}
	case 3:
		s1, s2 := lane(1), lane(2)
		for i := range s0 {
			v1, v2 := s1[i], s2[i]
			acc = acc.add(wv[i], s0[i]+v1*x1+v2*x2, v1*g1+v2*g2, v1*h1+v2*h2)
		}
	case 4:
		s1, s2, s3 := lane(1), lane(2), lane(3)
		for i := range s0 {
			v1, v2, v3 := s1[i], s2[i], s3[i]
			acc = acc.add(wv[i], s0[i]+v1*x1+v2*x2+v3*x3, v1*g1+v2*g2+v3*g3, v1*h1+v2*h2+v3*h3)
		}
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
