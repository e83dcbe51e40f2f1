package likelihood

import (
	"fmt"
	"testing"

	"repro/internal/tree"
)

// Kernel benchmarks for the scaling study. Run with
//
//	go test -run XXX -bench 'DownPartial|Newton' -cpu 1,2,4 -benchmem ./internal/likelihood/
//
// (make bench). ReportAllocs asserts the zero-alloc steady state; the
// threads=N sub-benchmarks measure the sharded kernels against the
// serial baseline on identical data.

var benchThreadCounts = []int{1, 2, 4, 8}

// benchEngine builds a warmed engine + tree at the given thread count.
func benchEngine(b *testing.B, threads int) (*CachedEngine, *tree.Tree) {
	b.Helper()
	m, p, tr := threadFixture(b, 17, 24, 3000)
	eng, err := New(m, p)
	if err != nil {
		b.Fatal(err)
	}
	if threads > 1 {
		eng.SetThreads(threads)
	}
	if _, err := eng.LogLikelihood(tr); err != nil {
		b.Fatal(err)
	}
	return eng, tr
}

// BenchmarkDownPartialCached measures the pruning recompute path with a
// warm arena: perturbing one interior branch per iteration invalidates
// the chain of CLVs that depend on it, so each evaluation re-runs the
// combine/rescale kernels (sharded when threads > 1) against cached
// children — the dominant kernel of an add or rearrangement round.
func BenchmarkDownPartialCached(b *testing.B) {
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchDownPartial(b, threads)
		})
	}
}

func benchDownPartial(b *testing.B, threads int) {
	eng, tr := benchEngine(b, threads)
	defer eng.Close()
	internal := tr.InternalEdges()
	if len(internal) == 0 {
		b.Fatal("no internal edges")
	}
	ed := internal[len(internal)/2]
	z := ed.Length()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.SetLen(ed.A, ed.B, z+float64(i%2)*1e-6)
		if _, err := eng.LogLikelihood(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewtonEdge measures OptimizeEdge on an already-converged
// branch of a warm cache: one fold with its fused derivative evaluation,
// plus the edge log-likelihood reduction the method returns. What the
// search's solves cost is BenchmarkNewtonSolve.
func BenchmarkNewtonEdge(b *testing.B) {
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchNewton(b, threads)
		})
	}
}

func benchNewton(b *testing.B, threads int) {
	eng, tr := benchEngine(b, threads)
	defer eng.Close()
	ed, ok := tr.FirstEdge()
	if !ok {
		b.Fatal("no edge")
	}
	if _, err := eng.OptimizeEdge(tr, ed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.OptimizeEdge(tr, ed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewtonSolve measures what a search's branch solves do: every
// branch of the smoothed tree is solved from a cold start — a quarter
// above and a fifth below its optimum, which takes 3.6 derivative
// evaluations per solve, inside the 3.4–4.0 the search workloads average
// (EXPERIMENTS.md, spectral fold) — on cached partials, with no CLV
// refill and no likelihood value in the timed region. One op is the
// same 2·(branches) solves every time; iterates/op counts their
// derivative evaluations.
func BenchmarkNewtonSolve(b *testing.B) {
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchNewtonSolve(b, threads)
		})
	}
}

func benchNewtonSolve(b *testing.B, threads int) {
	eng, tr := benchEngine(b, threads)
	defer eng.Close()
	if _, err := eng.OptimizeBranches(tr, OptOptions{Passes: 16}); err != nil {
		b.Fatal(err)
	}
	type solve struct {
		a, b clvRef
		z    float64
	}
	var solves []solve
	for _, ed := range tr.Edges() {
		pa, _ := eng.partial(ed.A, ed.B)
		pb, _ := eng.partial(ed.B, ed.A)
		solves = append(solves, solve{pa, pb, ed.Length()})
	}
	eng.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range solves {
			eng.newtonEdge(s.a, s.b, 1.25*s.z)
			eng.newtonEdge(s.a, s.b, 0.8*s.z)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Stats().NewtonIters)/float64(b.N), "iterates/op")
}

// BenchmarkFullSmooth measures full branch smoothing to convergence —
// the dominant cost of round-best re-optimization in the search. Each
// iteration restarts from the same deterministic perturbation of the
// converged optimum (alternate edges scaled ×1.6 / ×0.6), so every op
// performs identical work, and passes-to-convergence is reported as a
// metric alongside wall time.
func BenchmarkFullSmooth(b *testing.B) {
	for _, threads := range benchThreadCounts {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			benchSmooth(b, threads)
		})
	}
}

func benchSmooth(b *testing.B, threads int) {
	// The caterpillar fixture is well-specified for its data (chain-
	// correlated rows), so the optimum has interior branch lengths and
	// the sweep converges to it cleanly.
	m, p, tr := caterpillarFixture(b, 17, 24, 3000)
	eng, err := New(m, p)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if threads > 1 {
		eng.SetThreads(threads)
	}
	opt := OptOptions{Passes: 16}
	// Converge once, snapshot the optimum, and restart every iteration
	// from the same deterministic perturbation of it.
	if _, err := eng.OptimizeBranches(tr, opt); err != nil {
		b.Fatal(err)
	}
	edges := tr.Edges()
	lens := make([]float64, len(edges))
	for i, ed := range edges {
		lens[i] = ed.Length()
	}
	perturb := func() {
		for i, ed := range edges {
			f := 1.6
			if i%2 == 1 {
				f = 0.6
			}
			tree.SetLen(ed.A, ed.B, lens[i]*f)
		}
	}
	// One perturbed solve to warm the arena and smoothing scratch.
	perturb()
	if _, err := eng.OptimizeBranches(tr, opt); err != nil {
		b.Fatal(err)
	}
	eng.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perturb()
		if _, err := eng.OptimizeBranches(tr, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Stats().SmoothPasses)/float64(b.N), "passes/op")
}
