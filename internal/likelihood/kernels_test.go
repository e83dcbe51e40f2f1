package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// withinTol reports whether got agrees with want under a combined
// relative/absolute bound.
func withinTol(got, want, rel, abs float64) bool {
	d := math.Abs(got - want)
	return d <= abs || d <= rel*math.Abs(want)
}

// caterpillarFixture builds the worst-case geometry for CLV underflow: a
// maximally unbalanced (caterpillar) tree whose pruning recursion is as
// deep as the taxon count, over random sequences so most patterns
// conflict along the spine and conditional likelihoods shrink
// geometrically with depth.
func caterpillarFixture(t testing.TB, seed int64, taxa, sites int) (model.Model, *seq.Patterns, *tree.Tree) {
	rng := rand.New(rand.NewSource(seed))
	rows := randomRows(rng, taxa, sites)
	a := seq.NewAlignment(len(rows))
	names := taxaNames(taxa)
	for i, r := range rows {
		if err := a.Add(names[i], r); err != nil {
			t.Fatal(err)
		}
	}
	p, err := seq.Compress(a, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.New(names)
	if _, err := tr.GraftPair(0, 1, 0.05); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < taxa; i++ {
		leaf := tr.LeafByTaxon(i - 1)
		if _, err := tr.InsertLeaf(i, tree.Edge{A: leaf, B: leaf.Nbr[0]}); err != nil {
			t.Fatal(err)
		}
	}
	// Short branches keep per-join mismatch factors small (~1e-2), so a
	// deep spine drives pattern maxima down until rescaling fires.
	for _, ed := range tr.Edges() {
		tree.SetLen(ed.A, ed.B, 0.04)
	}
	return m, p, tr
}

// TestVectorCombine2MatchesScalar pins the AVX2 fused-combine kernel to
// the scalar reference bit for bit: an engine with the vector
// path enabled must produce byte-identical log-likelihoods, optimized
// branch lengths, and trees to one forced onto segCombine2 — including
// on the deep caterpillar, where the vector kernel's bail-to-scalar
// rescale protocol is exercised heavily.
func TestVectorCombine2MatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 kernel unavailable on this host")
	}
	run := func(name string, m model.Model, p *seq.Patterns, tr *tree.Tree) {
		vec, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		sca, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		if vec.bc2 == nil {
			t.Fatalf("%s: vector engine has no broadcast tables despite AVX2", name)
		}
		sca.bc2 = nil // force the scalar segCombine2 path

		tv, ts := tr.Clone(), tr.Clone()
		lv, err := vec.LogLikelihood(tv)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := sca.LogLikelihood(ts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(lv) != math.Float64bits(ls) {
			t.Errorf("%s: vector lnL %.17g not bit-identical to scalar %.17g", name, lv, ls)
		}
		ov, err := vec.OptimizeBranches(tv, OptOptions{Passes: 3})
		if err != nil {
			t.Fatal(err)
		}
		os, err := sca.OptimizeBranches(ts, OptOptions{Passes: 3})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ov) != math.Float64bits(os) {
			t.Errorf("%s: vector optimized lnL %.17g != scalar %.17g", name, ov, os)
		}
		if tv.Newick() != ts.Newick() {
			t.Errorf("%s: vector-optimized tree differs from scalar:\n got %s\nwant %s",
				name, tv.Newick(), ts.Newick())
		}
		vec.Close()
		sca.Close()
	}

	m, p, tr := threadFixture(t, 17, 14, 500)
	run("random", m, p, tr)
	mc, pc, trc := caterpillarFixture(t, 43, 40, 250)
	run("caterpillar", mc, pc, trc)
}
