// Package core assembles the fastDNAml reproduction into its user-facing
// form: read a PHYLIP alignment, build the default F84 model with
// empirical base frequencies, run one or more random-order maximum
// likelihood searches — serially or on the parallel
// master/foreman/worker/monitor runtime — and summarize the resulting
// trees with a majority rule consensus.
//
// The heavy lifting lives in the substrate packages (seq, model,
// likelihood, tree, comm, mlsearch); core wires them together the way the
// fastDNAml program does.
package core

import (
	"fmt"
	"io"

	"repro/internal/mlsearch"
	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Options configure an inference run: the Spec that decides its result,
// and the host and run settings that do not.
type Options struct {
	Spec
	// MaxConcurrentJumbles bounds how many jumbles (or bootstrap
	// replicates) run concurrently over the shared worker fleet. 0
	// defaults to min(Jumbles, Workers) in parallel runs; results are
	// identical at any setting.
	MaxConcurrentJumbles int
	// Workers selects the runtime: 0 runs the serial program; >= 1 runs
	// the parallel runtime with that many worker processes.
	Workers int
	// Threads is the likelihood engine's kernel thread count per
	// evaluator (default 1). Any value yields bit-identical trees and
	// likelihoods: the engine's sharding is deterministic.
	Threads int
	// WithMonitor adds the monitor role to parallel runs.
	WithMonitor bool
	// MonitorOut receives monitor output (nil discards it).
	MonitorOut io.Writer
	// Weights are optional per-site weights (nil = uniform).
	Weights []float64
	// SiteRates are optional per-site relative rates, e.g. from
	// dnarates (nil = homogeneous).
	SiteRates []float64
	// ConsensusThreshold is the majority rule threshold over jumble
	// results (default 0.5 = strict majority).
	ConsensusThreshold float64
	// Progress receives a notification per adopted tree
	// (jumble, event); the live tree viewer consumes it.
	Progress func(int, mlsearch.ProgressEvent)
	// Obs, when non-nil, attaches run observability (metrics, spans, the
	// /status snapshot) to parallel runs.
	Obs *mlsearch.RunObserver
	// Stop, when non-nil, cancels the run when closed: searches return
	// mlsearch.ErrStopped (wrapped) at their next round boundary, so a
	// signal handler can flush restart files and exit cleanly.
	Stop <-chan struct{}
}

func (o Options) withDefaults() Options {
	if o.ConsensusThreshold == 0 {
		o.ConsensusThreshold = 0.5
	}
	return o
}

// JumbleResult is the outcome of one random ordering.
type JumbleResult struct {
	// Seed is the (normalized) seed the ordering used.
	Seed int64
	// Tree is the inferred tree.
	Tree *tree.Tree
	// Newick is the inferred tree's canonical rendering.
	Newick string
	// LnL is the tree's log-likelihood.
	LnL float64
	// Search retains the raw search result (round log etc.).
	Search *mlsearch.SearchResult
}

// Inference is the outcome of a full run.
type Inference struct {
	// Jumbles holds each ordering's result, in run order.
	Jumbles []JumbleResult
	// Best points at the highest-likelihood jumble.
	Best *JumbleResult
	// Consensus is the majority rule consensus over the jumble trees
	// (nil when only one jumble ran).
	Consensus *tree.ConsensusResult
	// Model is the substitution model used.
	Model model.Model
	// Patterns is the compressed data set.
	Patterns *seq.Patterns
	// Monitor carries parallel instrumentation when it ran.
	Monitor *mlsearch.MonitorStats
}

// Prepare normalizes the options' Spec, compresses the alignment and
// builds the model and search config shared by Infer, the CLI, the
// daemon and the benchmark harness. The returned Options carry the
// normalized Spec.
func Prepare(a *seq.Alignment, opt Options) (mlsearch.Config, Options, error) {
	opt = opt.withDefaults()
	var err error
	if opt.Spec, err = opt.Spec.Normalize(); err != nil {
		return mlsearch.Config{}, opt, err
	}
	if err := a.Validate(); err != nil {
		return mlsearch.Config{}, opt, err
	}
	pat, err := seq.Compress(a, seq.CompressOptions{Weights: opt.Weights, Rates: opt.SiteRates})
	if err != nil {
		return mlsearch.Config{}, opt, err
	}
	m, err := buildModel(opt.Spec, pat)
	if err != nil {
		return mlsearch.Config{}, opt, err
	}
	cfg := mlsearch.Config{
		Taxa:            a.Names,
		Patterns:        pat,
		Model:           m,
		Seed:            opt.Seed,
		RearrangeExtent: opt.Extent,
		FinalExtent:     opt.FinalExtent,
		AdaptiveExtent:  opt.Adaptive,
		Threads:         opt.Threads,
		Engine:          opt.Engine,
	}
	return cfg, opt, nil
}

// buildModel constructs a normalized spec's substitution model, using
// the data's empirical base frequencies where the model takes them
// (paper §2.1).
func buildModel(sp Spec, pat *seq.Patterns) (model.Model, error) {
	freqs := seq.EmpiricalFreqsPatterns(pat)
	switch sp.Model {
	case "F84":
		return model.NewF84(freqs, sp.TTRatio)
	case "JC69":
		return model.NewJC69(), nil
	case "K80":
		return model.NewK80(sp.Kappa)
	case "HKY85":
		return model.NewHKY85(freqs, sp.Kappa)
	case "GTR":
		r := sp.GTRRates
		return model.NewGTR(freqs, model.GTRRates{AC: r[0], AG: r[1], AT: r[2], CG: r[3], CT: r[4], GT: r[5]})
	}
	return nil, fmt.Errorf("core: model %q is not a normalized name", sp.Model)
}

// Infer runs the full program over an alignment.
func Infer(a *seq.Alignment, opt Options) (*Inference, error) {
	cfg, opt, err := Prepare(a, opt)
	if err != nil {
		return nil, err
	}

	// One Run call covers both runtimes: the serial baseline and the
	// in-process parallel program.
	transport := mlsearch.Serial
	if opt.Workers > 0 {
		transport = mlsearch.Local
	}
	out, err := mlsearch.Run(cfg, mlsearch.RunOptions{
		Transport:            transport,
		Workers:              opt.Workers,
		WithMonitor:          opt.WithMonitor,
		MonitorOut:           opt.MonitorOut,
		Jumbles:              opt.Jumbles,
		MaxConcurrentJumbles: opt.MaxConcurrentJumbles,
		Progress:             opt.Progress,
		Obs:                  opt.Obs,
		Stop:                 opt.Stop,
	})
	if err != nil {
		return nil, err
	}
	return NewInference(cfg, out, opt)
}

// NewInference packages a finished run for reporting: one JumbleResult
// per search with its parsed tree, the best of them, and the majority
// rule consensus when more than one jumble ran. cfg and opt are the pair
// Prepare returned for the run.
func NewInference(cfg mlsearch.Config, out *mlsearch.RunOutcome, opt Options) (*Inference, error) {
	inf := &Inference{Model: cfg.Model, Patterns: cfg.Patterns, Monitor: out.Monitor}
	for j, res := range out.Results {
		tr, err := tree.ParseNewick(res.BestNewick, cfg.Taxa)
		if err != nil {
			return nil, fmt.Errorf("core: jumble %d result: %w", j, err)
		}
		inf.Jumbles = append(inf.Jumbles, JumbleResult{
			// The search reports the seed it actually ran with; deriving
			// it from j here would mislabel resumed runs.
			Seed:   res.Seed,
			Tree:   tr,
			Newick: res.BestNewick,
			LnL:    res.LnL,
			Search: res,
		})
	}
	best := &inf.Jumbles[0]
	for i := range inf.Jumbles {
		if inf.Jumbles[i].LnL > best.LnL {
			best = &inf.Jumbles[i]
		}
	}
	inf.Best = best

	if len(inf.Jumbles) > 1 {
		var trees []*tree.Tree
		for i := range inf.Jumbles {
			trees = append(trees, inf.Jumbles[i].Tree)
		}
		cons, err := tree.MajorityRule(trees, opt.ConsensusThreshold)
		if err != nil {
			return nil, fmt.Errorf("core: consensus: %w", err)
		}
		inf.Consensus = cons
	}
	return inf, nil
}
