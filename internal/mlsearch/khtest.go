package mlsearch

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// The Kishino-Hasegawa test, as printed by DNAml-family programs next to
// user-tree rankings: for each tree, the per-site log-likelihood
// differences against the best tree estimate the standard deviation of
// the total difference; a tree is significantly worse when its deficit
// exceeds 1.96 standard deviations (5% level).

// KHResult is one tree's Kishino-Hasegawa comparison against the best.
type KHResult struct {
	// Index is the tree's position in the input.
	Index int
	// Newick is the tree with optimized branch lengths.
	Newick string
	// LnL is the optimized log-likelihood.
	LnL float64
	// Diff is LnL minus the best tree's LnL (0 for the best).
	Diff float64
	// SD is the KH standard deviation of Diff (0 for the best).
	SD float64
	// SignificantlyWorse reports Diff < -1.96*SD.
	SignificantlyWorse bool
}

// KishinoHasegawa optimizes each tree's branch lengths and compares all
// trees to the best by the KH test. Results come back best-first. The
// evaluation is in-process (per-site vectors are needed, which the
// parallel protocol does not carry).
func KishinoHasegawa(cfg Config, trees []*tree.Tree) ([]KHResult, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("mlsearch: no trees to compare")
	}
	ev, err := NewConfigEvaluator(norm)
	if err != nil {
		return nil, err
	}
	defer ev.Close()

	type scored struct {
		idx    int
		newick string
		lnL    float64
		perPat []float64
	}
	var all []scored
	for i, t := range trees {
		cp := t.Clone()
		if err := cp.Validate(true); err != nil {
			return nil, fmt.Errorf("mlsearch: tree %d: %w", i+1, err)
		}
		if got := cp.NumLeaves(); got != len(norm.Taxa) {
			return nil, fmt.Errorf("mlsearch: tree %d covers %d of %d taxa", i+1, got, len(norm.Taxa))
		}
		lnL, err := ev.eng.OptimizeBranches(cp, likelihood.OptOptions{Passes: norm.FullSmoothPasses, Mode: ev.smoothMode})
		if err != nil {
			return nil, fmt.Errorf("mlsearch: tree %d: %w", i+1, err)
		}
		perPat, err := ev.eng.SiteLogLikelihoods(cp)
		if err != nil {
			return nil, fmt.Errorf("mlsearch: tree %d: %w", i+1, err)
		}
		// The engine owns the returned slice; copy to retain per tree.
		all = append(all, scored{idx: i, newick: cp.Newick(), lnL: lnL, perPat: append([]float64(nil), perPat...)})
	}

	bestIdx := 0
	for i := range all {
		if all[i].lnL > all[bestIdx].lnL {
			bestIdx = i
		}
	}
	best := all[bestIdx]
	weights := norm.Patterns.Weights
	totalW := norm.Patterns.TotalWeight()

	out := make([]KHResult, len(all))
	for i, s := range all {
		res := KHResult{Index: s.idx, Newick: s.newick, LnL: s.lnL, Diff: s.lnL - best.lnL}
		if i != bestIdx && totalW > 1 {
			// Weighted per-site differences d_p = l_tree,p - l_best,p.
			meanDiff := res.Diff / totalW
			variance := 0.0
			for p := range weights {
				d := s.perPat[p] - best.perPat[p]
				dev := d - meanDiff
				variance += weights[p] * dev * dev
			}
			// SD of the summed difference (Kishino & Hasegawa 1989).
			res.SD = math.Sqrt(totalW / (totalW - 1) * variance)
			res.SignificantlyWorse = res.Diff < -1.96*res.SD
		}
		out[i] = res
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LnL != out[j].LnL {
			return out[i].LnL > out[j].LnL
		}
		return out[i].Index < out[j].Index
	})
	return out, nil
}
