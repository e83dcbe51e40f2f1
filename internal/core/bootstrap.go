package core

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/mlsearch"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Bootstrapping: resample alignment columns with replacement, re-infer a
// tree per replicate, and read split support off the replicate trees.
// The paper lists "incorporation of multiple bootstraps within the code"
// as planned work, noting it was already possible with scripts (§5);
// here it is in the code.

// BootstrapResult summarizes a bootstrap analysis.
type BootstrapResult struct {
	// Trees holds one inferred tree per replicate.
	Trees []*tree.Tree
	// LnLs holds each replicate's log-likelihood (against its own
	// resampled data; not comparable across replicates).
	LnLs []float64
	// Consensus is the majority rule consensus of the replicate trees;
	// its Support/SplitFreq maps carry the bootstrap proportions.
	Consensus *tree.ConsensusResult
}

// Bootstrap runs the analysis: replicates resampled data sets, one
// search each (the Options' Seed drives both the resampling and the
// searches; Workers>0 parallelizes each search's tree evaluations).
func Bootstrap(a *seq.Alignment, opt Options, replicates int) (*BootstrapResult, error) {
	if replicates < 2 {
		return nil, fmt.Errorf("core: %d bootstrap replicates, need >= 2", replicates)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	opt.Jumbles = 1 // one ordering per replicate
	nsites := a.NumSites()
	rng := rand.New(rand.NewSource(mlsearch.NormalizeSeed(opt.Seed)))

	// All replicate resamples are drawn up front from the one shared rng,
	// so the weights (and therefore every replicate's result) do not
	// depend on how many replicates later run concurrently.
	seed := mlsearch.NormalizeSeed(opt.Seed)
	opts := make([]Options, replicates)
	for rep := range opts {
		// Multinomial column resample as integer weights.
		weights := make([]float64, nsites)
		for i := 0; i < nsites; i++ {
			weights[rng.Intn(nsites)]++
		}
		ropt := opt
		ropt.Weights = combineWeights(opt.Weights, weights)
		ropt.Seed = seed + int64(2*rep)
		ropt.Progress = nil
		if opt.Progress != nil {
			idx := rep
			ropt.Progress = func(_ int, e mlsearch.ProgressEvent) { opt.Progress(idx, e) }
		}
		opts[rep] = ropt
	}

	// Replicates are independent inferences, so MaxConcurrentJumbles
	// bounds them directly (default 1: sequential, the historical
	// behavior). Each replicate still parallelizes internally per
	// Workers.
	conc := opt.MaxConcurrentJumbles
	if conc < 1 {
		conc = 1
	}
	if conc > replicates {
		conc = replicates
	}
	trees := make([]*tree.Tree, replicates)
	lnls := make([]float64, replicates)
	errs := make([]error, replicates)
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for rep := range opts {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			inf, err := Infer(a, opts[rep])
			if err != nil {
				errs[rep] = err
				return
			}
			trees[rep], lnls[rep] = inf.Best.Tree, inf.Best.LnL
		}(rep)
	}
	wg.Wait()
	for rep, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: bootstrap replicate %d: %w", rep+1, err)
		}
	}
	out := &BootstrapResult{Trees: trees, LnLs: lnls}

	cons, err := tree.MajorityRule(out.Trees, consensusThreshold)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap consensus: %w", err)
	}
	out.Consensus = cons
	return out, nil
}

// combineWeights multiplies user weights with bootstrap counts (nil user
// weights mean uniform).
func combineWeights(user, boot []float64) []float64 {
	if user == nil {
		return boot
	}
	out := make([]float64, len(boot))
	for i := range boot {
		out[i] = user[i] * boot[i]
	}
	return out
}
