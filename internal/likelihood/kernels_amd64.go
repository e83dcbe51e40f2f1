//go:build amd64

package likelihood

import "repro/internal/model"

// AVX2 fast path for the fused binary combine (segCombine2), the kernel
// that dominates tree evaluation time (~85% of a cached evaluation's
// cycles). The assembly in kernels_amd64.s processes four patterns per
// iteration with 256-bit vectors; it is gated at runtime by CPUID so a
// GOAMD64=v1 build still runs (and falls back to the scalar kernel) on
// pre-AVX2 hardware.
//
// Bit-identity contract: the vector kernel performs, lane for lane, the
// exact floating-point operations of segCombine2 in the same order —
// multiplies are commuted only (IEEE-exact), dot products stay
// left-associated, and no FMA contraction is used (gc does not contract
// on amd64, so the scalar reference is mul+add too). Groups where any
// pattern would rescale are NOT handled in assembly: the kernel stops
// before storing that group and reports how many groups it completed,
// and the wrapper reruns the group through the scalar kernel. Rescaling
// is rare in steady state (the whole point of counting scale events),
// so the bail costs little and keeps the underflow path on one shared
// code path.

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
