package likelihood

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// TestParseSmoothMode: the sweep's spellings parse, the removed
// gradient smoother's get CheckSmoothMode's one refusal, anything else
// is an unknown mode.
func TestParseSmoothMode(t *testing.T) {
	refusal := CheckSmoothMode(SmoothGradient)
	if refusal == nil || CheckSmoothMode(SmoothSweep) != nil {
		t.Fatalf("CheckSmoothMode: sweep %v, gradient %v", CheckSmoothMode(SmoothSweep), refusal)
	}
	cases := []struct {
		in   string
		want error // nil = accepted as SmoothSweep
	}{
		{"", nil},
		{"sweep", nil},
		{"gradient", refusal},
		{"grad", refusal},
	}
	for _, c := range cases {
		got, err := ParseSmoothMode(c.in)
		if got != SmoothSweep || (err == nil) != (c.want == nil) || (err != nil && err.Error() != c.want.Error()) {
			t.Errorf("ParseSmoothMode(%q) = %v, %v; want sweep, %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseSmoothMode("newton"); err == nil || err.Error() == refusal.Error() {
		t.Errorf("ParseSmoothMode(newton) = %v, want an unknown-mode error", err)
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
	m, p, tr := threadFixture(t, 31, 14, 500)
	eng, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	grads, lnL, err := eng.BranchGradients(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(grads) != len(tr.Edges()) {
		t.Fatalf("%d gradient entries, tree has %d edges", len(grads), len(tr.Edges()))
	}
	want, err := eng.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	// BranchGradients reduces at a (possibly) different edge than
	// LogLikelihood, so agreement is to rounding, not bits.
	if !withinTol(lnL, want, 1e-9, 1e-7) {
		t.Errorf("BranchGradients lnL %.17g != LogLikelihood %.17g", lnL, want)
	}
	for _, g := range grads {
		a := eng.partial(g.A, g.B)
		b := eng.partial(g.B, g.A)
		d1, d2 := eng.edgeGradient(a, b, g.Z)
		if math.Float64bits(g.D1) != math.Float64bits(d1) ||
			math.Float64bits(g.D2) != math.Float64bits(d2) {
			t.Errorf("edge %d-%d: gradient (%.17g, %.17g) != deriv kernel (%.17g, %.17g)",
				g.A.ID, g.B.ID, g.D1, g.D2, d1, d2)
		}
	}
}

// TestSweepOptimumIsStationary ties the analytic gradient to the
// sweep: at the optimum the Newton sweep converges to, the Newton step
// every BranchGradients entry predicts (-D1/D2) must stay inside the
// difftest float64 length tolerance — including on the 48-taxon
// caterpillar whose deep spine stresses rescaling. Edges a slope holds
// at a length bound are at a constrained optimum and are skipped.
func TestSweepOptimumIsStationary(t *testing.T) {
	// Difftest float64 engine-agreement length tolerance
	// (difftest.DefaultTolerance).
	const lenRel, lenAbs = 5e-4, 1e-5
	run := func(name string, mk func(testing.TB) fixtureCase) {
		t.Run(name, func(t *testing.T) {
			fc := mk(t)
			eng, err := New(fc.m, fc.p)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			tr := fc.tr.Clone()
			// Repeat the sweep until a call gains less than 1e-7, so it
			// runs to a genuine optimum.
			for prev, gain := math.Inf(-1), math.Inf(1); gain >= 1e-7; {
				lnL, err := eng.OptimizeBranches(tr, OptOptions{Passes: 64})
				if err != nil {
					t.Fatal(err)
				}
				prev, gain = lnL, lnL-prev
			}
			grads, _, err := eng.BranchGradients(tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range grads {
				if (g.Z <= MinBranchLength && g.D1 < 0) || (g.Z >= MaxBranchLength && g.D1 > 0) {
					continue
				}
				if step := -g.D1 / g.D2; !(g.D2 < 0) || math.Abs(step) > lenAbs+lenRel*g.Z {
					t.Errorf("edge %d-%d at %.9g: gradient (%.6g, %.6g) predicts a Newton step of %.3g",
						g.A.ID, g.B.ID, g.Z, g.D1, g.D2, step)
				}
			}
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
// the gradient path: the all-branches gradient and its likelihood must
// be bit-identical at every thread count.
func TestGradientThreadedBitIdentical(t *testing.T) {
	m, p, tr := threadFixture(t, 11, 20, 2200)

	ref, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	refGrads, refLnL, err := ref.BranchGradients(tr.Clone(), nil)
	if err != nil {
		t.Fatal(err)
	}
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
		requirePooled(t, fmt.Sprintf("threads=%d", n), eng)
		eng.Close()
	}
}

// TestSmoothZeroAllocSteadyState asserts the sweep holds the arena
// contract the evaluation path already has: once warm,
// perturb-and-resmooth allocates nothing, serial or threaded — the
// sweep's visit order lives in engine-owned scratch.
func TestSmoothZeroAllocSteadyState(t *testing.T) {
	m, p, tr := caterpillarFixture(t, 3, 12, 2800)
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

	for _, threads := range []int{1, 4} {
		eng, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if threads > 1 {
			eng.SetThreads(threads)
		}
		opt := OptOptions{Passes: 16}
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
			t.Errorf("threads=%d: warm smoothing allocates %.1f/op, want 0", threads, n)
		}
		if &eng.spec[0] != scratch {
			t.Errorf("threads=%d: fold scratch reallocated", threads)
		}
		if threads > 1 {
			requirePooled(t, fmt.Sprintf("threads=%d", threads), eng)
		}
		eng.Close()
	}
}

// fixtureCase bundles one dataset + starting tree for table-driven runs.
type fixtureCase struct {
	m  model.Model
	p  *seq.Patterns
	tr *tree.Tree
}
