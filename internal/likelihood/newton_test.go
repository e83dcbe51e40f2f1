package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/tree"
)

// newtonStarts are the start lengths every generated edge is solved
// from: both bounds, values just inside them, the interior, and (as 0)
// the edge's own current length.
var newtonStarts = []float64{0, MinBranchLength, 3e-7, 1e-3, 0.07, 0.9, 4, MaxBranchLength}

// newtonCase is one generated (data, tree) pair of the Newton property
// tests; kind names what it stresses.
type newtonCase struct {
	kind string
	m    model.Model
	p    *seq.Patterns
	tr   *tree.Tree
}

// newtonCases generates the data sets and trees the Newton property
// tests solve on: simulated alignments scored on a random (wrong)
// topology with random lengths, so starts are far from any optimum;
// saturated data whose optima sit at MaxBranchLength; alignments with a
// duplicated row whose cherry wants MinBranchLength; and a set with
// several rate classes and enough patterns to span shards.
func newtonCases(t testing.TB) []newtonCase {
	t.Helper()
	var out []newtonCase
	add := func(kind string, seed int64, opt simulate.Options, dupRow bool, classes []float64) {
		opt.Seed = seed
		ds, err := simulate.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		a := ds.Alignment
		rng := rand.New(rand.NewSource(seed * 7919))
		tr, err := tree.RandomTree(a.Names, rng, opt.MeanBranchLen)
		if err != nil {
			t.Fatal(err)
		}
		if dupRow {
			// Make one cherry of the scored tree a pair of identical
			// sequences.
			for _, n := range tr.Nodes {
				if n == nil || n.Leaf() {
					continue
				}
				var leaves []*tree.Node
				for _, c := range n.Nbr {
					if c.Leaf() {
						leaves = append(leaves, c)
					}
				}
				if len(leaves) >= 2 {
					copy(a.Data[leaves[1].Taxon], a.Data[leaves[0].Taxon])
					break
				}
			}
		}
		p, err := seq.Compress(a, seq.CompressOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(classes) > 0 {
			for i := range p.Rates {
				p.Rates[i] = classes[i%len(classes)]
			}
		}
		m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, newtonCase{kind: fmt.Sprintf("%s/seed=%d", kind, seed), m: m, p: p, tr: tr})
	}
	for seed := int64(1); seed <= 4; seed++ {
		add("typical", seed, simulate.Options{Taxa: 9, Sites: 120, MeanBranchLen: 0.08}, false, nil)
		add("short", seed, simulate.Options{Taxa: 7, Sites: 150, MeanBranchLen: 0.01}, false, nil)
		add("saturated", seed, simulate.Options{Taxa: 6, Sites: 100, MeanBranchLen: 2.5}, false, nil)
		add("identical", seed, simulate.Options{Taxa: 6, Sites: 110, MeanBranchLen: 0.1}, true, nil)
	}
	add("classes", 5, simulate.Options{Taxa: 10, Sites: 900, MeanBranchLen: 0.15}, false, []float64{0.25, 1, 3, 0.6})
	add("classes", 6, simulate.Options{Taxa: 8, Sites: 700, MeanBranchLen: 0.3}, true, []float64{0.1, 1.9})
	return out
}

// TestNewtonEdgeNeverWorseThanStart is the property the derivative-only
// Newton loop must keep now that no likelihood value guards it: from any
// start in the legal interval, on any edge, the returned length's edge
// log-likelihood is at least the start's (to 1e-9 relative rounding
// slack). The values are computed here, outside the loop.
func TestNewtonEdgeNeverWorseThanStart(t *testing.T) {
	checked := 0
	for _, c := range newtonCases(t) {
		for _, prec := range []Precision{Float64, Float32} {
			eng, err := NewWithPrecision(c.m, c.p, prec)
			if err != nil {
				t.Fatal(err)
			}
			eng.ensureBuffers(c.tr.MaxID())
			for _, ed := range c.tr.Edges() {
				a, _ := eng.partial(ed.A, ed.B)
				b, _ := eng.partial(ed.B, ed.A)
				for _, z0 := range newtonStarts {
					if z0 == 0 {
						z0 = ed.Length()
					}
					z := eng.newtonEdge(a, b, z0)
					if z < MinBranchLength || z > MaxBranchLength || math.IsNaN(z) {
						t.Fatalf("%s prec=%v edge %d-%d from %g: length %g outside the legal interval",
							c.kind, prec, ed.A.ID, ed.B.ID, z0, z)
					}
					start := eng.edgeLogLikelihood(a, b, z0)
					got := eng.edgeLogLikelihood(a, b, z)
					if got < start-1e-9*math.Abs(start) {
						t.Errorf("%s prec=%v edge %d-%d from %g: lnL %.12f at returned %g < %.12f at start (loss %.3g)",
							c.kind, prec, ed.A.ID, ed.B.ID, z0, got, z, start, start-got)
					}
					checked++
				}
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d (tree, edge, start) cases generated, want >= 200", checked)
	}
	t.Logf("%d (tree, edge, start) cases", checked)
}

// TestNewtonEdgeCachedMatchesReference: both engines run the same
// derivative-only loop over the shared newtonStep, so from the same
// start they return the same length. Where the two reduce in the same
// order — float64, one rate class, one shard — the derivatives and
// therefore the lengths are bit-equal; with several classes or shards
// the cached engine's permuted, sharded sums differ in the last bits
// and the lengths agree to well inside the difftest length tolerance.
func TestNewtonEdgeCachedMatchesReference(t *testing.T) {
	bitEqual := 0
	for _, c := range newtonCases(t) {
		eng, err := New(c.m, c.p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewReference(c.m, c.p, Float64)
		if err != nil {
			t.Fatal(err)
		}
		sameOrder := len(eng.classRates) == 1 && len(eng.shards) == 1
		eng.ensureBuffers(c.tr.MaxID())
		for _, ed := range c.tr.Edges() {
			a, _ := eng.partial(ed.A, ed.B)
			b, _ := eng.partial(ed.B, ed.A)
			ra, rb := ref.partial(ed.A, ed.B), ref.partial(ed.B, ed.A)
			for _, z0 := range newtonStarts {
				if z0 == 0 {
					z0 = ed.Length()
				}
				got, want := eng.newtonEdge(a, b, z0), ref.newtonEdge(ra, rb, z0)
				switch {
				case sameOrder:
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s edge %d-%d from %g: cached %.17g, reference %.17g, want bit-equal",
							c.kind, ed.A.ID, ed.B.ID, z0, got, want)
					}
					bitEqual++
				case !withinTol(got, want, 1e-6, 1e-9):
					t.Errorf("%s edge %d-%d from %g: cached %.17g, reference %.17g",
						c.kind, ed.A.ID, ed.B.ID, z0, got, want)
				}
			}
		}
	}
	if bitEqual < 200 {
		t.Fatalf("only %d bit-equality cases, want >= 200", bitEqual)
	}
}

// TestNewtonItersCountDerivativeEvaluations: NewtonIters advances by one
// per derivative evaluation whichever path asks — the Newton loop or the
// all-branches gradient — and the work counter by one fold per (a, b)
// pair plus one eval per evaluation, at the costs documented next to the
// kernels.
func TestNewtonItersCountDerivativeEvaluations(t *testing.T) {
	m, p, tr := threadFixture(t, 5, 8, 200)
	eng, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.LogLikelihood(tr); err != nil {
		t.Fatal(err)
	}
	ed := tr.Edges()[0]
	a, _ := eng.partial(ed.A, ed.B)
	b, _ := eng.partial(ed.B, ed.A)
	nk := len(m.Decomposition().Lambda)
	perFold := uint64(eng.npat) * foldOps(nk)
	perEval := uint64(eng.npat) * evalOps(nk)
	if nk != 3 || foldOps(nk) != 48 || evalOps(nk) != 12 {
		t.Fatalf("F84: %d terms, fold %d, eval %d ops/pattern; want 3, 48, 12", nk, foldOps(nk), evalOps(nk))
	}

	eng.ResetStats()
	eng.ResetOps()
	eng.newtonEdge(a, b, 0.5)
	iters := eng.Stats().NewtonIters
	if iters < 2 || iters > newtonMaxIter {
		t.Fatalf("newtonEdge: %d iterations, want a multi-iterate solve", iters)
	}
	if got, want := eng.Ops(), perFold+iters*perEval; got != want {
		t.Errorf("newtonEdge: %d ops for one fold and %d derivative evaluations, want %d", got, iters, want)
	}

	// A first pass fills the up-partials; the measured one runs on a
	// warm cache, so only reductions count.
	grads, _, err := eng.BranchGradients(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.ResetStats()
	eng.ResetOps()
	if grads, _, err = eng.BranchGradients(tr, grads); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().NewtonIters; got != uint64(len(grads)) {
		t.Errorf("BranchGradients: NewtonIters %d for %d edges", got, len(grads))
	}
	// One fold and one eval per edge; one value reduction (20
	// ops/pattern) closes the pass.
	if got, want := eng.Ops(), uint64(len(grads))*(perFold+perEval)+uint64(eng.npat)*20; got != want {
		t.Errorf("BranchGradients: %d ops, want %d", got, want)
	}
}

// TestRestrictedRegionMatchesReference pins the cached engine's
// allocation-free region marking to the reference engine's explicit
// edge set: a restricted smoothing pass moves exactly the same branches
// in both, to the same lengths, and leaves every other branch alone.
func TestRestrictedRegionMatchesReference(t *testing.T) {
	c := newtonCases(t)[0]
	eng, err := New(c.m, c.p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(c.m, c.p, Float64)
	if err != nil {
		t.Fatal(err)
	}
	inner := c.tr.InternalEdges()
	for radius := 1; radius <= 3; radius++ {
		for _, centers := range [][]int{{inner[0].A.ID}, {inner[0].A.ID, inner[len(inner)-1].B.ID}} {
			ct, rt := c.tr.Clone(), c.tr.Clone()
			pick := func(tr *tree.Tree) OptOptions {
				opt := OptOptions{Passes: 1, Radius: radius, Around: tr.Nodes[centers[0]]}
				for _, id := range centers[1:] {
					opt.Centers = append(opt.Centers, tr.Nodes[id])
				}
				return opt
			}
			if _, err := eng.OptimizeBranches(ct, pick(ct)); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.OptimizeBranches(rt, pick(rt)); err != nil {
				t.Fatal(err)
			}
			moved := 0
			for _, ed := range c.tr.Edges() {
				was := ed.Length()
				got := ct.Nodes[ed.A.ID].LenTo(ct.Nodes[ed.B.ID])
				want := rt.Nodes[ed.A.ID].LenTo(rt.Nodes[ed.B.ID])
				if (got != was) != (want != was) {
					t.Errorf("radius %d centers %v edge %d-%d: cached moved=%v, reference moved=%v",
						radius, centers, ed.A.ID, ed.B.ID, got != was, want != was)
				}
				if !withinTol(got, want, 5e-4, 1e-5) {
					t.Errorf("radius %d centers %v edge %d-%d: cached %g, reference %g",
						radius, centers, ed.A.ID, ed.B.ID, got, want)
				}
				if got != was {
					moved++
				}
			}
			if moved == 0 || (radius == 1 && moved == len(c.tr.Edges())) {
				t.Errorf("radius %d centers %v: %d of %d branches moved", radius, centers, moved, len(c.tr.Edges()))
			}
		}
	}
}
