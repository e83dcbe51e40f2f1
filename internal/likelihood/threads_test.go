package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// threadFixture builds a data set large enough to split into several
// shards (npat >> minShardPatterns) with multiple rate classes, so the
// threaded kernels cross classBlock boundaries.
func threadFixture(t testing.TB, seed int64, taxa, sites int) (model.Model, *seq.Patterns, *tree.Tree) {
	rng := rand.New(rand.NewSource(seed))
	rows := randomRows(rng, taxa, sites)
	a := seq.NewAlignment(len(rows))
	for i, r := range rows {
		if err := a.Add(taxaNames(taxa)[i], r); err != nil {
			t.Fatal(err)
		}
	}
	p, err := seq.Compress(a, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	classes := []float64{0.25, 1.0, 3.0, 0.6}
	for i := range p.Rates {
		p.Rates[i] = classes[i%len(classes)]
	}
	m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tree.RandomTree(taxaNames(taxa), rng, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	return m, p, tr
}

// TestThreadedBitIdentical is the tentpole's determinism contract: the
// shard layout is a pure function of the data and reductions accumulate
// in shard index order, so every thread count must produce bit-identical
// log-likelihoods, branch lengths, and trees.
func TestThreadedBitIdentical(t *testing.T) {
	m, p, tr := threadFixture(t, 11, 20, 600)

	ref, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.shards) < 2 {
		t.Fatalf("fixture too small: %d shards, want >= 2", len(ref.shards))
	}
	refTree := tr.Clone()
	refLnL, err := ref.LogLikelihood(refTree)
	if err != nil {
		t.Fatal(err)
	}
	// The Newton shard kernels on their own: one fold (with its fused
	// first evaluation) and one evaluation from the folded lanes, over
	// shards whose segments cross rate-class boundaries.
	foldProbe := func(eng *CachedEngine, tr *tree.Tree) (d [4]float64, lanes []float64) {
		ed := tr.InternalEdges()[0]
		a, _ := eng.partial(ed.A, ed.B)
		b, _ := eng.partial(ed.B, ed.A)
		d[0], d[1] = eng.edgeGradient(a, b, ed.Length())
		d[2], d[3] = eng.specGradient(kSpecEval, 3*ed.Length())
		return d, append([]float64(nil), eng.spec...)
	}
	multiClass := false
	for _, sh := range ref.shards {
		multiClass = multiClass || len(sh.segs) > 1
	}
	if !multiClass {
		t.Fatal("fixture: no shard spans a rate-class boundary")
	}
	refD, refLanes := foldProbe(ref, refTree)
	refOpt, err := ref.OptimizeBranches(refTree, OptOptions{Passes: 4})
	if err != nil {
		t.Fatal(err)
	}
	refNewick := refTree.Newick()

	for _, n := range []int{1, 2, 4, 7} {
		eng, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetThreads(n)
		if got := eng.Threads(); got != n {
			t.Fatalf("Threads() = %d, want %d", got, n)
		}
		cand := tr.Clone()
		lnL, err := eng.LogLikelihood(cand)
		if err != nil {
			t.Fatalf("threads=%d: %v", n, err)
		}
		if math.Float64bits(lnL) != math.Float64bits(refLnL) {
			t.Errorf("threads=%d: lnL %.17g not bit-identical to serial %.17g", n, lnL, refLnL)
		}
		d, lanes := foldProbe(eng, cand)
		for i := range d {
			if math.Float64bits(d[i]) != math.Float64bits(refD[i]) {
				t.Errorf("threads=%d: folded derivative %d = %.17g, serial %.17g", n, i, d[i], refD[i])
			}
		}
		for i := range lanes {
			if math.Float64bits(lanes[i]) != math.Float64bits(refLanes[i]) {
				t.Fatalf("threads=%d: fold lane entry %d = %.17g, serial %.17g", n, i, lanes[i], refLanes[i])
			}
		}
		opt, err := eng.OptimizeBranches(cand, OptOptions{Passes: 4})
		if err != nil {
			t.Fatalf("threads=%d: optimize: %v", n, err)
		}
		if math.Float64bits(opt) != math.Float64bits(refOpt) {
			t.Errorf("threads=%d: optimized lnL %.17g != serial %.17g", n, opt, refOpt)
		}
		if nwk := cand.Newick(); nwk != refNewick {
			t.Errorf("threads=%d: optimized tree differs from serial:\n got %s\nwant %s", n, nwk, refNewick)
		}
		if n > 1 && eng.Stats().ShardDispatches == 0 {
			t.Errorf("threads=%d: no threaded shard dispatches recorded", n)
		}
		eng.Close()
	}
}

// TestThreadedInsertScorerBitIdentical covers the rapid insertion path
// (the add-round kernel of §2.1) across thread counts.
func TestThreadedInsertScorerBitIdentical(t *testing.T) {
	m, p, tr := threadFixture(t, 5, 12, 500)
	const taxon = 11
	if err := tr.RemoveLeaf(taxon); err != nil {
		t.Fatal(err)
	}

	score := func(threads int) []float64 {
		eng, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if threads > 1 {
			eng.SetThreads(threads)
		}
		base := tr.Clone()
		if _, err := eng.OptimizeBranches(base, OptOptions{Passes: 2}); err != nil {
			t.Fatal(err)
		}
		sc, err := eng.NewInsertScorer(base, taxon)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, ed := range base.InsertionEdges() {
			s, err := sc.Score(ed, 2)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s.LnL, s.LenA, s.LenB, s.LenLeaf)
		}
		return out
	}

	ref := score(1)
	for _, n := range []int{2, 4, 7} {
		got := score(n)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("threads=%d: score value %d = %.17g, serial %.17g", n, i, got[i], ref[i])
			}
		}
	}
}

// TestZeroAllocSteadyState asserts the arena work: once caches are warm,
// repeated likelihood evaluations, single-edge Newton optimization and
// the restricted junction-local smoothing every rearrangement task runs
// must not allocate — serial or threaded, in either CLV precision (the
// cache slabs and insertion arena size off the padded layout, so both
// storage formats must stay allocation-free).
func TestZeroAllocSteadyState(t *testing.T) {
	m, p, tr := threadFixture(t, 3, 12, 400)

	for _, prec := range []Precision{Float64, Float32} {
		for _, threads := range []int{1, 4} {
			eng, err := NewWithPrecision(m, p, prec)
			if err != nil {
				t.Fatal(err)
			}
			if threads > 1 {
				eng.SetThreads(threads)
			}
			if _, err := eng.LogLikelihood(tr); err != nil {
				t.Fatal(err)
			}
			ed, ok := tr.FirstEdge()
			if !ok {
				t.Fatal("no edge")
			}
			if _, err := eng.OptimizeEdge(tr, ed); err != nil {
				t.Fatal(err)
			}

			if n := testing.AllocsPerRun(50, func() {
				if _, err := eng.LogLikelihood(tr); err != nil {
					t.Fatal(err)
				}
			}); n > 0 {
				t.Errorf("prec=%v threads=%d: warm LogLikelihood allocates %.1f/op, want 0", prec, threads, n)
			}
			if n := testing.AllocsPerRun(50, func() {
				if _, err := eng.OptimizeEdge(tr, ed); err != nil {
					t.Fatal(err)
				}
			}); n > 0 {
				t.Errorf("prec=%v threads=%d: warm OptimizeEdge allocates %.1f/op, want 0", prec, threads, n)
			}
			// A cold start iterates on the folded lanes, which must be the
			// buffer the constructor allocated, not a per-call one.
			scratch, z := &eng.spec[0], ed.Length()
			if n := testing.AllocsPerRun(50, func() {
				tree.SetLen(ed.A, ed.B, 8*z)
				if _, err := eng.OptimizeEdge(tr, ed); err != nil {
					t.Fatal(err)
				}
			}); n > 0 {
				t.Errorf("prec=%v threads=%d: cold OptimizeEdge allocates %.1f/op, want 0", prec, threads, n)
			}
			if &eng.spec[0] != scratch || len(eng.spec) != len(eng.foldM)*eng.npad {
				t.Errorf("prec=%v threads=%d: fold scratch reallocated (len %d)", prec, threads, len(eng.spec))
			}
			inner := tr.InternalEdges()[0]
			local := OptOptions{Passes: 2, Centers: []*tree.Node{inner.A, inner.B}, Radius: 2}
			if _, err := eng.OptimizeBranches(tr, local); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(50, func() {
				if _, err := eng.OptimizeBranches(tr, local); err != nil {
					t.Fatal(err)
				}
			}); n > 0 {
				t.Errorf("prec=%v threads=%d: warm restricted OptimizeBranches allocates %.1f/op, want 0", prec, threads, n)
			}
			eng.Close()
		}
	}
}

// TestSetThreadsIdempotent exercises pool lifecycle edges: repeated
// SetThreads calls, shrinking back to serial, and Close.
func TestSetThreadsIdempotent(t *testing.T) {
	m, p, tr := threadFixture(t, 9, 8, 300)
	eng, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 4, 2, 1, 3, 0, -5} {
		eng.SetThreads(n)
		got, err := eng.LogLikelihood(tr)
		if err != nil {
			t.Fatalf("SetThreads(%d): %v", n, err)
		}
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("SetThreads(%d): lnL %.17g != %.17g", n, got, ref)
		}
		if n < 1 && eng.Threads() != 1 {
			t.Fatalf("SetThreads(%d) left Threads() = %d, want 1", n, eng.Threads())
		}
	}
	eng.Close()
	eng.Close() // double close must be safe
}
