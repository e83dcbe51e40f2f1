package likelihood

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// TestParseSmoothMode covers the flag-value round trip.
func TestParseSmoothMode(t *testing.T) {
	cases := []struct {
		in   string
		want SmoothMode
		ok   bool
	}{
		{"", SmoothSweep, true},
		{"sweep", SmoothSweep, true},
		{"gradient", SmoothGradient, true},
		{"grad", SmoothGradient, true},
		{"newton", SmoothSweep, false},
	}
	for _, c := range cases {
		got, err := ParseSmoothMode(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseSmoothMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if SmoothSweep.String() != "sweep" || SmoothGradient.String() != "gradient" {
		t.Errorf("String(): %q, %q", SmoothSweep, SmoothGradient)
	}
}

// TestBranchGradientsMatchDerivKernel pins the all-branches walk to the
// per-edge derivative kernel: for every edge, BranchGradients must
// return d1/d2 bit-identical to edgeGradient on that edge's two
// directed partials at the same length — the pre-order walk pairs the
// right up- and down-partial with the right branch.
func TestBranchGradientsMatchDerivKernel(t *testing.T) {
	for _, prec := range []Precision{Float64, Float32} {
		m, p, tr := threadFixture(t, 31, 14, 500)
		eng, err := NewWithPrecision(m, p, prec)
		if err != nil {
			t.Fatal(err)
		}
		grads, lnL, err := eng.BranchGradients(tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(grads) != len(tr.Edges()) {
			t.Fatalf("prec=%v: %d gradient entries, tree has %d edges", prec, len(grads), len(tr.Edges()))
		}
		want, err := eng.LogLikelihood(tr)
		if err != nil {
			t.Fatal(err)
		}
		// BranchGradients reduces at a (possibly) different edge than
		// LogLikelihood, so agreement is to rounding, not bits.
		rel, abs := 1e-9, 1e-7
		if prec == Float32 {
			rel, abs = Float32LnLRelTol, Float32LnLAbsTol
		}
		if !withinTol(lnL, want, rel, abs) {
			t.Errorf("prec=%v: BranchGradients lnL %.17g != LogLikelihood %.17g", prec, lnL, want)
		}
		for _, g := range grads {
			a, _ := eng.partial(g.A, g.B)
			b, _ := eng.partial(g.B, g.A)
			d1, d2 := eng.edgeGradient(a, b, g.Z)
			if math.Float64bits(g.D1) != math.Float64bits(d1) ||
				math.Float64bits(g.D2) != math.Float64bits(d2) {
				t.Errorf("prec=%v edge %d-%d: gradient (%.17g, %.17g) != deriv kernel (%.17g, %.17g)",
					prec, g.A.ID, g.B.ID, g.D1, g.D2, d1, d2)
			}
		}
	}
}

// TestGradientSmoothMatchesSweep is the optimizer property test:
// simultaneous gradient smoothing must reach the same optimum as the
// sequential Newton sweep — log-likelihood within the difftest Opt
// tolerance, every branch length within the Len tolerance — including
// on the 48-taxon caterpillar whose deep spine stresses rescaling.
func TestGradientSmoothMatchesSweep(t *testing.T) {
	// Difftest float64 engine-agreement tolerances (difftest.DefaultTolerance).
	const (
		optRel, optAbs = 1e-7, 1e-4
		lenRel, lenAbs = 5e-4, 1e-5
	)
	run := func(name string, mk func(testing.TB) fixtureCase) {
		t.Run(name, func(t *testing.T) {
			fc := mk(t)
			// Tight tolerance so both optimizers run to a genuine
			// optimum: near it the surface's curvature turns a lnL gap
			// of Tol into a length gap ~sqrt(2·Tol/|d2|), which must
			// land inside the length tolerance below.
			opt := OptOptions{Passes: 64, Tol: 1e-7}

			sweepEng, err := New(fc.m, fc.p)
			if err != nil {
				t.Fatal(err)
			}
			sweepTree := fc.tr.Clone()
			sweepLnL, err := sweepEng.OptimizeBranches(sweepTree, opt)
			if err != nil {
				t.Fatal(err)
			}

			gradEng, err := New(fc.m, fc.p)
			if err != nil {
				t.Fatal(err)
			}
			gradTree := fc.tr.Clone()
			opt.Mode = SmoothGradient
			gradLnL, err := gradEng.OptimizeBranches(gradTree, opt)
			if err != nil {
				t.Fatal(err)
			}

			if !withinTol(gradLnL, sweepLnL, optRel, optAbs) {
				t.Errorf("optimized lnL: gradient %.12g vs sweep %.12g (diff %.3g)",
					gradLnL, sweepLnL, math.Abs(gradLnL-sweepLnL))
			}
			se, ge := sweepTree.Edges(), gradTree.Edges()
			if len(se) != len(ge) {
				t.Fatalf("edge count %d vs %d", len(se), len(ge))
			}
			for i := range se {
				if se[i].A.ID != ge[i].A.ID || se[i].B.ID != ge[i].B.ID {
					t.Fatalf("edge %d identity diverged", i)
				}
				sl, gl := se[i].Length(), ge[i].Length()
				if !withinTol(gl, sl, lenRel, lenAbs) {
					t.Errorf("edge %d-%d length: gradient %.9g vs sweep %.9g",
						se[i].A.ID, se[i].B.ID, gl, sl)
				}
			}
			st := gradEng.Stats()
			if st.GradPasses == 0 {
				t.Error("gradient mode recorded no gradient passes")
			}
			t.Logf("sweep lnL %.6f (%d passes), gradient lnL %.6f (%d rounds, %d fallbacks)",
				sweepLnL, sweepEng.Stats().SmoothPasses, gradLnL, st.GradPasses, st.GradFallbacks)
		})
	}

	// The caterpillar fixtures are well-specified: randomRows correlates
	// each taxon's row with the previous one, so the chain topology is
	// the true tree and the optimum has interior branch lengths. (A
	// random topology over chain-correlated data drives edges to the
	// length clamp, where the surface is flat and any two optimizers
	// legitimately part ways.)
	run("caterpillar-12taxa", func(tb testing.TB) fixtureCase {
		m, p, tr := caterpillarFixture(tb, 5, 12, 400)
		return fixtureCase{m, p, tr}
	})
	run("caterpillar-24taxa", func(tb testing.TB) fixtureCase {
		m, p, tr := caterpillarFixture(tb, 9, 24, 800)
		return fixtureCase{m, p, tr}
	})
	run("random-12taxa", func(tb testing.TB) fixtureCase {
		m, p, tr := threadFixture(tb, 7, 12, 300)
		return fixtureCase{m, p, tr}
	})
	run("caterpillar-48taxa", func(tb testing.TB) fixtureCase {
		m, p, tr := caterpillarFixture(tb, 41, 48, 300)
		return fixtureCase{m, p, tr}
	})
}

// TestGradientThreadedBitIdentical extends the determinism contract to
// the gradient path: the all-branches gradient, the round likelihood,
// and the final smoothed tree must be bit-identical at every thread
// count.
func TestGradientThreadedBitIdentical(t *testing.T) {
	m, p, tr := threadFixture(t, 11, 20, 600)

	ref, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	refGrads, refLnL, err := ref.BranchGradients(tr.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
	refTree := tr.Clone()
	refOpt, err := ref.OptimizeBranches(refTree, OptOptions{Passes: 8, Mode: SmoothGradient})
	if err != nil {
		t.Fatal(err)
	}
	refNewick := refTree.Newick()
	ref.Close()

	for _, n := range []int{2, 4, 7} {
		eng, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetThreads(n)
		grads, lnL, err := eng.BranchGradients(tr.Clone(), nil)
		if err != nil {
			t.Fatalf("threads=%d: %v", n, err)
		}
		if math.Float64bits(lnL) != math.Float64bits(refLnL) {
			t.Errorf("threads=%d: gradient lnL %.17g != serial %.17g", n, lnL, refLnL)
		}
		if len(grads) != len(refGrads) {
			t.Fatalf("threads=%d: %d gradients, serial %d", n, len(grads), len(refGrads))
		}
		for i := range grads {
			if math.Float64bits(grads[i].D1) != math.Float64bits(refGrads[i].D1) ||
				math.Float64bits(grads[i].D2) != math.Float64bits(refGrads[i].D2) {
				t.Errorf("threads=%d: gradient %d not bit-identical to serial", n, i)
			}
		}
		cand := tr.Clone()
		opt, err := eng.OptimizeBranches(cand, OptOptions{Passes: 8, Mode: SmoothGradient})
		if err != nil {
			t.Fatalf("threads=%d: optimize: %v", n, err)
		}
		if math.Float64bits(opt) != math.Float64bits(refOpt) {
			t.Errorf("threads=%d: optimized lnL %.17g != serial %.17g", n, opt, refOpt)
		}
		if nwk := cand.Newick(); nwk != refNewick {
			t.Errorf("threads=%d: optimized tree differs from serial:\n got %s\nwant %s", n, nwk, refNewick)
		}
		eng.Close()
	}
}

// TestGradientRestrictedUsesSweep pins the dispatch rule: Around/Centers
// optimizations ignore SmoothGradient and produce exactly the sweep's
// result, with no gradient rounds recorded.
func TestGradientRestrictedUsesSweep(t *testing.T) {
	m, p, tr := threadFixture(t, 13, 12, 400)
	center := tr.AnyNode()

	sweepEng, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	sweepTree := tr.Clone()
	want, err := sweepEng.OptimizeBranches(sweepTree, OptOptions{Passes: 3, Around: centerIn(sweepTree, center)})
	if err != nil {
		t.Fatal(err)
	}

	gradEng, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	gradTree := tr.Clone()
	got, err := gradEng.OptimizeBranches(gradTree, OptOptions{Passes: 3, Around: centerIn(gradTree, center), Mode: SmoothGradient})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("restricted gradient-mode lnL %.17g != sweep %.17g", got, want)
	}
	if gradTree.Newick() != sweepTree.Newick() {
		t.Error("restricted gradient-mode tree differs from sweep")
	}
	if st := gradEng.Stats(); st.GradPasses != 0 || st.GradFallbacks != 0 {
		t.Errorf("restricted optimization ran gradient rounds: %+v", st)
	}
}

// centerIn maps a node of one clone to the same node in another (clones
// preserve IDs).
func centerIn(t *tree.Tree, n *tree.Node) *tree.Node { return t.Nodes[n.ID] }

// TestSmoothZeroAllocSteadyState asserts both smoothing paths hold the
// arena contract the evaluation path already has: once warm,
// perturb-and-resmooth allocates nothing, in either mode and precision,
// serial or threaded — the sweep's visit order and the gradient rounds'
// buffers live in engine-owned scratch.
func TestSmoothZeroAllocSteadyState(t *testing.T) {
	m, p, tr := caterpillarFixture(t, 3, 12, 400)
	edges := tr.Edges()
	lens := make([]float64, len(edges))
	for i, ed := range edges {
		lens[i] = ed.Length()
	}
	perturb := func() {
		for i, ed := range edges {
			f := 1.5
			if i%2 == 1 {
				f = 0.7
			}
			tree.SetLen(ed.A, ed.B, lens[i]*f)
		}
	}

	for _, mode := range []SmoothMode{SmoothSweep, SmoothGradient} {
		for _, prec := range []Precision{Float64, Float32} {
			for _, threads := range []int{1, 4} {
				eng, err := NewWithPrecision(m, p, prec)
				if err != nil {
					t.Fatal(err)
				}
				if threads > 1 {
					eng.SetThreads(threads)
				}
				opt := OptOptions{Passes: 16, Mode: mode}
				perturb()
				if _, err := eng.OptimizeBranches(tr, opt); err != nil {
					t.Fatal(err)
				}
				scratch := &eng.spec[0]
				if n := testing.AllocsPerRun(20, func() {
					perturb()
					if _, err := eng.OptimizeBranches(tr, opt); err != nil {
						t.Fatal(err)
					}
				}); n > 0 {
					t.Errorf("mode=%v prec=%v threads=%d: warm smoothing allocates %.1f/op, want 0", mode, prec, threads, n)
				}
				if &eng.spec[0] != scratch {
					t.Errorf("mode=%v prec=%v threads=%d: fold scratch reallocated", mode, prec, threads)
				}
				if st := eng.Stats(); st.GradFallbacks != 0 {
					t.Errorf("mode=%v prec=%v threads=%d: %d gradient fallbacks during steady-state rounds", mode, prec, threads, st.GradFallbacks)
				}
				eng.Close()
			}
		}
	}
}

// fixtureCase bundles one dataset + starting tree for table-driven runs.
type fixtureCase struct {
	m  model.Model
	p  *seq.Patterns
	tr *tree.Tree
}
