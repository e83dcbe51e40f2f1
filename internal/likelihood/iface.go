package likelihood

import (
	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Engine is the likelihood-evaluation seam: everything the search,
// worker, and rate-estimation layers need from a backend. The paper
// treats likelihood evaluation as an opaque work unit handed to workers;
// this interface is that boundary in code, so genuinely different
// algorithms (the CLV-cached production engine, the direct-recomputation
// reference engine, future low-memory or FFI backends) are drop-in
// replacements whose agreement is machine-checked by the differential
// harness in internal/likelihood/difftest.
//
// The interface is deliberately minimal: evaluation, branch smoothing,
// and insertion scoring. Everything else — kernel threading, cache
// statistics, explicit invalidation, op counting — is a capability
// expressed as a small optional sub-interface (Threader, StatsReporter,
// Invalidator, OpsReporter, Closer) that minimal engines simply do not
// implement. Callers reach
// capabilities through the package helpers (EngineThreads, StatsOf,
// ...) which no-op or return zero values on engines without them.
//
// Implementations are not safe for concurrent use; each worker owns one.
type Engine interface {
	// Model returns the engine's substitution model.
	Model() model.Model
	// Patterns returns the engine's compressed data set.
	Patterns() *seq.Patterns

	// LogLikelihood evaluates the tree's log-likelihood without changing
	// any branch length. The tree must cover exactly the engine's taxa
	// and contain at least two leaves (ErrTreeMismatch otherwise).
	LogLikelihood(t *tree.Tree) (float64, error)
	// SiteLogLikelihoods returns the per-pattern log-likelihoods of the
	// tree (weights not applied) in the original pattern order of
	// Patterns(). The returned slice may be owned by the engine and
	// overwritten by the next call; callers that retain it must copy.
	SiteLogLikelihoods(t *tree.Tree) ([]float64, error)

	// OptimizeBranches optimizes branch lengths in place and returns the
	// final log-likelihood. With OptOptions.Centers set, only
	// nearby branches are optimized but the returned value is still the
	// full-tree log-likelihood.
	OptimizeBranches(t *tree.Tree, opt OptOptions) (float64, error)
	// OptimizeEdge optimizes a single edge's branch length in place and
	// returns the resulting full-tree log-likelihood. The edge's
	// endpoints must be neighbors (ErrEdgeNotFound otherwise).
	OptimizeEdge(t *tree.Tree, ed tree.Edge) (float64, error)

	// NewInsertScorer prepares scoring of candidate insertions of taxon
	// into base. The taxon must be covered by the data set
	// (ErrTaxonOutsideData) and absent from base (ErrTaxonInTree). The
	// base tree must not be mutated between Score calls; only the most
	// recently created scorer of an engine may be used.
	NewInsertScorer(base *tree.Tree, taxon int) (InsertScorer, error)
}

// InsertScorer scores candidate insertions of one taxon into one base
// tree, bound to the engine that created it (see Engine.NewInsertScorer).
type InsertScorer interface {
	// Score evaluates inserting the taxon on edge ed of the base tree,
	// mirroring tree.InsertLeaf's starting geometry and Newton-optimizing
	// the three junction branches for the given number of passes
	// (minimum 1). The base tree is not modified. The edge must exist in
	// the base tree (ErrEdgeNotFound otherwise).
	Score(ed tree.Edge, passes int) (InsertScore, error)
}

// Threader is the kernel-threading capability: engines that can fan
// their pattern-dimension kernels out over a goroutine pool. The
// contract is strict determinism — results bit-identical at any count.
type Threader interface {
	// SetThreads sizes the kernel pool; n <= 1 restores single-threaded
	// operation. Must not be called during an evaluation.
	SetThreads(n int)
	// Threads reports the configured kernel thread count.
	Threads() int
}

// Closer is implemented by engines holding resources (goroutine pools,
// mapped memory) that should be released when the engine is discarded.
type Closer interface {
	// Close releases the engine's resources; it must be idempotent.
	Close()
}

// PrecisionReporter reports an engine's CLV storage format, which is
// always Float64. It remains only because the benchmark module asserts
// that its timing decorator keeps it (ROADMAP item 10).
type PrecisionReporter interface {
	Precision() Precision
}

// StatsReporter is the cache/instrumentation capability.
type StatsReporter interface {
	// Stats returns the counters since the last ResetStats.
	Stats() EngineStats
	// ResetStats zeroes the counters and returns the previous values.
	ResetStats() EngineStats
}

// OpsReporter is the work-unit accounting capability consumed by the
// cluster simulator's cost model.
type OpsReporter interface {
	// Ops returns the cumulative pattern-level work counter.
	Ops() uint64
	// ResetOps zeroes the work counter and returns the previous value.
	ResetOps() uint64
}

// GradientSmoother is the linear-time all-branches gradient capability
// (Ji et al., "Gradients do grow on trees"): one post-order pass over
// down-partials, one pre-order pass over up-partials, and a per-edge
// reduction yield the derivative of the total log-likelihood with
// respect to every branch length in O(branches) kernel work. The
// difftest harness checks it against finite differences of
// LogLikelihood.
type GradientSmoother interface {
	// BranchGradients appends one entry per branch of t to dst — the
	// edge, its current length, and ∂lnL/∂z with the diagonal Hessian
	// term ∂²lnL/∂z², evaluated at the current lengths — and returns
	// the extended slice plus the tree's log-likelihood. The tree is
	// not modified.
	BranchGradients(t *tree.Tree, dst []BranchGrad) ([]BranchGrad, float64, error)
}

// Invalidator is the explicit cache-invalidation capability, for
// callers that mutate branch lengths behind the tree package's back.
type Invalidator interface {
	// InvalidateAll marks every cached vector stale.
	InvalidateAll()
	// InvalidateEdge marks stale every cached vector that depends on the
	// length of edge (a, b).
	InvalidateEdge(a, b *tree.Node)
}

// Capability helpers: callers that hold a plain Engine use these to
// exercise optional capabilities without type-asserting at every site.
// Each is a no-op (or returns a zero value) when the engine lacks the
// capability, so minimal backends work everywhere the cached one does.

// EngineThreads reports the engine's kernel thread count (1 when the
// engine does not thread).
func EngineThreads(e Engine) int {
	if t, ok := e.(Threader); ok {
		return t.Threads()
	}
	return 1
}

// CloseEngine releases the engine's resources when it holds any.
func CloseEngine(e Engine) {
	if c, ok := e.(Closer); ok {
		c.Close()
	}
}

// StatsOf returns the engine's instrumentation counters (zero when the
// engine does not keep any).
func StatsOf(e Engine) EngineStats {
	if s, ok := e.(StatsReporter); ok {
		return s.Stats()
	}
	return EngineStats{}
}

// BranchGradientsOf computes the all-branches gradient when the engine
// has the GradientSmoother capability, reporting ok=false (with dst and
// the tree untouched) when it does not.
func BranchGradientsOf(e Engine, t *tree.Tree, dst []BranchGrad) (grads []BranchGrad, lnL float64, ok bool, err error) {
	if g, isGS := e.(GradientSmoother); isGS {
		grads, lnL, err = g.BranchGradients(t, dst)
		return grads, lnL, true, err
	}
	return dst, 0, false, nil
}

// OpsOf returns the engine's work counter (zero when the engine does not
// keep one).
func OpsOf(e Engine) uint64 {
	if o, ok := e.(OpsReporter); ok {
		return o.Ops()
	}
	return 0
}

// Compile-time interface conformance for the in-tree backends.
var (
	_ Engine            = (*CachedEngine)(nil)
	_ Threader          = (*CachedEngine)(nil)
	_ Closer            = (*CachedEngine)(nil)
	_ PrecisionReporter = (*CachedEngine)(nil)
	_ StatsReporter     = (*CachedEngine)(nil)
	_ OpsReporter       = (*CachedEngine)(nil)
	_ Invalidator       = (*CachedEngine)(nil)
	_ GradientSmoother  = (*CachedEngine)(nil)

	_ Engine = (*ReferenceEngine)(nil)
)
