//go:build !amd64

package likelihood

import "repro/internal/model"

// Non-amd64 builds have no vector kernels: the engine never allocates
// the combine's broadcast tables, so it always takes the scalar path,
// and the wrappers are the scalar kernels.
const useAVX2 = false

func combine2F64(dst, a, b []float64, ma, mb *model.PMatrix, tab *[33][4]float64,
	dsc, asc, bsc []int32, npad, lo, n int) {
	segCombine2(dst, a, b, ma, mb, dsc, asc, bsc, npad, lo, n)
}

func foldF64(spec, aclv, bclv []float64, m []model.PMatrix, f *[4]float64, tab *foldTable, npad, lo, n int) {
	segFold(spec, aclv, bclv, m, f, npad, lo, n)
}

func specEvalF64(spec, w []float64, c *specCoef, nk, npad, lo, n int, acc gradAcc) gradAcc {
	return segSpecEval(spec, w, c, nk, npad, lo, n, acc)
}

func edgeLnLF64(aclv, bclv []float64, asc, bsc []int32, w []float64,
	pm *model.PMatrix, f *[4]float64, tab *lnlTable, npad, lo, n int, acc float64) float64 {
	return segEdgeLnL(aclv, bclv, asc, bsc, w, pm, f, npad, lo, n, acc)
}
