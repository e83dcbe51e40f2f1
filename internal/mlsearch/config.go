package mlsearch

import (
	"fmt"
	"math/rand"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/seq"
)

// The search's fixed rules (paper §2): candidates are scored with a quick
// smoothing, each round's best tree and the final tree with a full one,
// and rearrangement rounds repeat until no round improves the tree.
const (
	// quickInsertPasses bounds smoothing while scoring an insertion or a
	// rearrangement (the rapid approximation of §2.1).
	quickInsertPasses = 2
	// fullSmoothPasses bounds smoothing of round-best, final and user
	// trees.
	fullSmoothPasses = 8
	// epsilon is the least log-likelihood gain counted as an improvement.
	epsilon = 1e-5
	// maxRearrangeRounds bounds the improve-repeat loop after one
	// addition (a safety valve; fastDNAml loops until no improvement).
	maxRearrangeRounds = 50
)

// Config describes one fastDNAml search over a fixed data set.
type Config struct {
	// Taxa are the taxon labels, aligned with the pattern rows.
	Taxa []string
	// Patterns is the compressed alignment.
	Patterns *seq.Patterns
	// Model is the substitution model (NewDefaultModel builds the F84
	// default with empirical frequencies).
	Model model.Model

	// Seed drives the random taxon ordering (paper step 1). fastDNAml
	// adjusts even user-supplied seeds so the generator attains its
	// maximum period (§2.1); Normalize applies the same rule.
	Seed int64
	// Jumble numbers this run among multiple random orderings; it is
	// informational (the caller varies Seed).
	Jumble int

	// RearrangeExtent is the number of vertices crossed during the
	// local rearrangements after each addition (paper step 4); 0
	// disables them, 1 is fastDNAml's default, 5 is the paper's test
	// setting.
	RearrangeExtent int
	// FinalExtent is the extent of the final rearrangement pass after
	// the last taxon (paper step 5); 0 means "same as RearrangeExtent".
	FinalExtent int
	// AdaptiveExtent enables the paper's planned "adaptive extents of
	// tree rearrangement" (§5): the extent used after each addition
	// grows by one (up to max(RearrangeExtent, FinalExtent)) when the
	// previous rearrangement loop improved the tree and shrinks by one
	// (down to 1) when it did not, spending effort where it pays.
	AdaptiveExtent bool

	// Threads is the likelihood engine's kernel thread count for
	// evaluators this config builds (the foreman's inline evaluator, which
	// is the whole of a serial run, and workers; WorkerHooks.Threads
	// replaces it on one worker).
	// Default 1.
	// Results are bit-identical across thread counts: sharding is a pure
	// function of the data and reductions run in shard order.
	Threads int

	// Precision must be likelihood.Float64 (the zero value): CLVs are
	// float64 only and Normalize refuses any other. The field remains only
	// because the benchmark module sets it (ROADMAP item 10).
	Precision likelihood.Precision

	// Engine names the likelihood backend used by evaluators this config
	// builds (see likelihood.Engines for the registered set). Empty
	// selects likelihood.DefaultEngine, the CLV-cached production
	// backend; "reference" selects the direct-recomputation engine used
	// for differential testing. Normalize rejects unknown names.
	Engine string

	// SmoothMode must be likelihood.SmoothSweep (the zero value): the
	// Newton sweep is the only smoother and Normalize refuses any other.
	// The field remains only because the benchmark module sets it
	// (ROADMAP item 10).
	SmoothMode likelihood.SmoothMode
}

// Normalize validates the configuration and fills defaults, returning the
// effective configuration.
func (c Config) Normalize() (Config, error) {
	if len(c.Taxa) < 3 {
		return c, fmt.Errorf("mlsearch: %d taxa, need at least 3", len(c.Taxa))
	}
	if c.Patterns == nil || c.Patterns.NumSeqs() != len(c.Taxa) {
		return c, fmt.Errorf("mlsearch: patterns missing or over wrong number of sequences")
	}
	if c.Model == nil {
		return c, fmt.Errorf("mlsearch: no substitution model")
	}
	if c.RearrangeExtent < 0 || c.FinalExtent < 0 {
		return c, fmt.Errorf("mlsearch: negative rearrangement extent")
	}
	if c.FinalExtent == 0 {
		c.FinalExtent = c.RearrangeExtent
	}
	if c.Threads < 1 {
		c.Threads = 1
	}
	if err := likelihood.CheckPrecision(c.Precision); err != nil {
		return c, fmt.Errorf("mlsearch: %w", err)
	}
	if err := likelihood.CheckSmoothMode(c.SmoothMode); err != nil {
		return c, fmt.Errorf("mlsearch: %w", err)
	}
	eng, err := likelihood.ParseEngine(c.Engine)
	if err != nil {
		return c, fmt.Errorf("mlsearch: %w", err)
	}
	c.Engine = eng
	c.Seed = NormalizeSeed(c.Seed)
	return c, nil
}

// NormalizeSeed applies fastDNAml's seed rule: the seed must be positive
// and odd (even seeds halve the generator period, so they are adjusted;
// paper §2.1).
func NormalizeSeed(seed int64) int64 {
	if seed <= 0 {
		seed = 1
	}
	if seed%2 == 0 {
		seed++
	}
	return seed
}

// TaxonOrder returns the randomized insertion order of taxa 0..n-1 for
// the given (normalized) seed, reproducing step 1 of the algorithm.
func TaxonOrder(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(NormalizeSeed(seed)))
	return rng.Perm(n)
}

// NewDefaultModel builds fastDNAml's default model for a data set: F84
// with the data's empirical base frequencies and the default
// transition/transversion ratio (paper §2.1: "the base composition of the
// data is used as the equilibrium base frequencies").
func NewDefaultModel(p *seq.Patterns) (model.Model, error) {
	freqs := seq.EmpiricalFreqsPatterns(p)
	return model.NewF84(freqs, model.DefaultTTRatio)
}
