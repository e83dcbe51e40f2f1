//go:build amd64

package likelihood

import "repro/internal/model"

// AVX2 fast paths for the four kernels a search spends its time in:
// the fused binary combine (segCombine2) that fills CLVs, the Newton
// pair — the spectral fold (segFold) and the derivative eval
// (segSpecEval) — and the edge log-likelihood (segEdgeLnL) with its
// logarithm. The assembly in kernels_amd64.s processes four patterns
// per iteration with 256-bit vectors; it is gated at runtime by CPUID so
// a GOAMD64=v1 build still runs (and falls back to the scalar kernels)
// on pre-AVX2 hardware.
//
// Bit-identity contract: each vector kernel performs, lane for lane, the
// exact floating-point operations of its scalar kernel in the same order
// — multiplies and adds are commuted only (IEEE-exact), sums stay
// left-associated, and no FMA contraction is used (gc does not contract
// on amd64, so the scalar reference is mul+add too). The logarithm is
// the one math.Log runs on amd64 (archLog in the Go runtime's
// math/log_amd64.s), replayed instruction by instruction. Reductions are
// not reassociated: the eval and the log-likelihood add their four
// patterns' terms to each accumulator one at a time, in pattern order.
// Groups where any pattern would rescale are NOT handled in assembly:
// the combine stops before storing that group and reports how many
// groups it completed, and the wrapper reruns the group through the
// scalar kernel. Rescaling is rare in steady state (the whole point of
// counting scale events), so the bail costs little and keeps the
// underflow path on one shared code path. The engine hands the wrappers
// whole groups (shard.go); a length that is not a multiple of 4 still
// works, its < 4-pattern tail running in the scalar kernel.

// combine2AVX2 computes groups*4 patterns of dst = (Ma·a) ⊙ (Mb·b)
// starting at the given lane-0 element pointers, where each CLV lane k
// lives at +k*npad entries. tab is the pre-broadcast coefficient table:
// rows 0..15 hold Ma[j][k] at row j*4+k (each coefficient repeated 4×),
// rows 16..31 hold Mb likewise, and row 32 holds the rescale threshold.
// It returns the number of complete groups processed; a return < groups
// means the next group contains a pattern needing rescaling (or a
// non-finite value) and was left untouched for the scalar kernel.
//
//go:noescape
func combine2AVX2(dst, a, b *float64, tab *[33][4]float64, dsc, asc, bsc *int32, groups, npad int) int

// foldAVX2 folds groups*4 patterns of the a and b CLVs (lane-0 element
// pointers, lane k at +k*npad entries) into the nk spectral lanes at
// spec, as segFold does, with tab the engine's broadcast foldTable.
//
//go:noescape
func foldAVX2(spec, a, b *float64, tab *foldTable, nk, groups, npad int)

// specEvalAVX2 accumulates groups*4 patterns of segSpecEval into acc
// from the nk folded lanes at spec and the weights at w.
//
//go:noescape
func specEvalAVX2(spec, w *float64, c *specCoef, nk, groups, npad int, acc *gradAcc)

// edgeLnLAVX2 adds groups*4 patterns of segEdgeLnL to acc and returns
// it, from the a and b CLVs (lane-0 element pointers), their scale
// counts, the weights at w and the broadcast table tab.
//
//go:noescape
func edgeLnLAVX2(a, b *float64, asc, bsc *int32, w *float64, tab *lnlTable, groups, npad int, acc float64) float64

// cpuidAsm executes CPUID with the given leaf/subleaf.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0 (only valid once OSXSAVE is confirmed).
func xgetbvAsm() (eax, edx uint32)

// hasAVX2 reports whether the CPU and OS support AVX2 (AVX2 feature
// flag, AVX, OSXSAVE, and XMM+YMM state enabled in XCR0).
func hasAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0
}

// useAVX2 gates the vector combine at runtime, independent of GOAMD64.
var useAVX2 = hasAVX2()

// combine2F64 runs the fused binary combine over the padded range
// [lo, lo+n) using the AVX2 kernel for full 4-pattern groups and the
// scalar kernel for groups that rescale and for the tail. Padding is
// never touched: n counts real patterns only.
func combine2F64(dst, a, b []float64, ma, mb *model.PMatrix, tab *[33][4]float64,
	dsc, asc, bsc []int32, npad, lo, n int) {
	for n >= 4 {
		g := n >> 2
		done := combine2AVX2(&dst[lo], &a[lo], &b[lo], tab, &dsc[lo], &asc[lo], &bsc[lo], g, npad)
		lo += 4 * done
		n -= 4 * done
		if done < g {
			// The next group has a pattern that rescales; the scalar
			// kernel is the reference for that path.
			segCombine2(dst, a, b, ma, mb, dsc, asc, bsc, npad, lo, 4)
			lo += 4
			n -= 4
		}
	}
	if n > 0 {
		segCombine2(dst, a, b, ma, mb, dsc, asc, bsc, npad, lo, n)
	}
}

// foldF64 is segFold over [lo, lo+n): the AVX2 kernel for full
// 4-pattern groups, the scalar kernel for the tail.
func foldF64(spec, aclv, bclv []float64, m []model.PMatrix, f *[4]float64, tab *foldTable, npad, lo, n int) {
	if g := n >> 2; g > 0 {
		foldAVX2(&spec[lo], &aclv[lo], &bclv[lo], tab, len(m), g, npad)
		lo, n = lo+4*g, n-4*g
	}
	if n > 0 {
		segFold(spec, aclv, bclv, m, f, npad, lo, n)
	}
}

// specEvalF64 is segSpecEval over [lo, lo+n): the AVX2 kernel for full
// 4-pattern groups, the scalar kernel for the tail, one accumulator
// threaded through both.
func specEvalF64(spec, w []float64, c *specCoef, nk, npad, lo, n int, acc gradAcc) gradAcc {
	if g := n >> 2; g > 0 {
		specEvalAVX2(&spec[lo], &w[lo], c, nk, g, npad, &acc)
		lo, n = lo+4*g, n-4*g
	}
	if n > 0 {
		acc = segSpecEval(spec, w, c, nk, npad, lo, n, acc)
	}
	return acc
}

// edgeLnLF64 is segEdgeLnL over [lo, lo+n): the AVX2 kernel for full
// 4-pattern groups, the scalar kernel for the tail, one accumulator
// threaded through both.
func edgeLnLF64(aclv, bclv []float64, asc, bsc []int32, w []float64,
	pm *model.PMatrix, f *[4]float64, tab *lnlTable, npad, lo, n int, acc float64) float64 {
	if g := n >> 2; g > 0 {
		acc = edgeLnLAVX2(&aclv[lo], &bclv[lo], &asc[lo], &bsc[lo], &w[lo], tab, g, npad, acc)
		lo, n = lo+4*g, n-4*g
	}
	if n > 0 {
		acc = segEdgeLnL(aclv, bclv, asc, bsc, w, pm, f, npad, lo, n, acc)
	}
	return acc
}
