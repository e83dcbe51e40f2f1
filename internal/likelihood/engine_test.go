package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// mkPatterns builds compressed patterns from raw sequence rows.
func mkPatterns(t *testing.T, rows ...string) (*seq.Patterns, *seq.Alignment) {
	t.Helper()
	a := seq.NewAlignment(len(rows))
	for i, r := range rows {
		if err := a.Add(fmt.Sprintf("t%02d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	p, err := seq.Compress(a, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p, a
}

func mkEngine(t *testing.T, m model.Model, rows ...string) *CachedEngine {
	t.Helper()
	p, _ := mkPatterns(t, rows...)
	e, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func taxaNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%02d", i)
	}
	return out
}

// bruteForceLogLikelihood sums over all state assignments of every node,
// an independent (exponential-time) reference for the pruning algorithm.
func bruteForceLogLikelihood(m model.Model, p *seq.Patterns, t *tree.Tree) float64 {
	freqs := m.Freqs()
	d := m.Decomposition()
	var nodes []*tree.Node
	for _, n := range t.Nodes {
		if n != nil {
			nodes = append(nodes, n)
		}
	}
	idx := make(map[int]int, len(nodes)) // node ID -> position
	for i, n := range nodes {
		idx[n.ID] = i
	}
	root := nodes[0]

	total := 0.0
	var pm model.PMatrix
	for pat := 0; pat < p.NumPatterns(); pat++ {
		// Precompute per-edge matrices at this pattern's rate.
		mats := map[[2]int]model.PMatrix{}
		for _, e := range t.Edges() {
			d.Probs(e.Length(), p.Rates[pat], &pm)
			mats[[2]int{e.A.ID, e.B.ID}] = pm
		}
		probOf := func(from, to *tree.Node, i, j int) float64 {
			if m, ok := mats[[2]int{from.ID, to.ID}]; ok {
				return m[i][j]
			}
			m := mats[[2]int{to.ID, from.ID}]
			return m[j][i] // reversible models are symmetric under pi-weighting; use transpose with care
		}
		_ = probOf

		states := make([]int, len(nodes))
		var lkl float64
		var rec func(k int, weight float64)
		rec = func(k int, weight float64) {
			if weight == 0 {
				return
			}
			if k == len(nodes) {
				lkl += weight
				return
			}
			n := nodes[k]
			for s := 0; s < 4; s++ {
				w := weight
				if n.Leaf() {
					code := p.Codes[n.Taxon][pat]
					if code&(1<<uint(s)) == 0 {
						continue
					}
				}
				if n == root {
					w *= freqs[s]
				} else {
					// multiply by transition prob from parent... parent is
					// any already-assigned neighbor (tree order ensures one).
					var parent *tree.Node
					for _, nb := range n.Nbr {
						if idx[nb.ID] < k {
							parent = nb
							break
						}
					}
					if parent == nil {
						// Reorder guarantees violated; skip.
						continue
					}
					var mat model.PMatrix
					d.Probs(parent.LenTo(n), p.Rates[pat], &mat)
					w *= mat[states[idx[parent.ID]]][s]
				}
				states[k] = s
				rec(k+1, w)
			}
		}
		// Order nodes so each non-root has an earlier neighbor: BFS.
		order := []*tree.Node{root}
		seen := map[int]bool{root.ID: true}
		for qi := 0; qi < len(order); qi++ {
			for _, nb := range order[qi].Nbr {
				if !seen[nb.ID] {
					seen[nb.ID] = true
					order = append(order, nb)
				}
			}
		}
		nodes = order
		idx = make(map[int]int, len(nodes))
		for i, n := range nodes {
			idx[n.ID] = i
		}
		root = nodes[0]
		states = make([]int, len(nodes))
		lkl = 0
		rec(0, 1)
		total += p.Weights[pat] * math.Log(lkl)
	}
	return total
}

func TestLogLikelihoodMatchesBruteForce(t *testing.T) {
	rows := []string{
		"ACGTACGTAA",
		"ACGTTCGTAC",
		"AAGTACGAAT",
		"ACCTACGTGG",
		"NCGTRCG-AT",
	}
	p, _ := mkPatterns(t, rows...)
	freqs := seq.EmpiricalFreqsPatterns(p)
	models := []model.Model{model.NewJC69()}
	if f84, err := model.NewF84(freqs, 2.0); err == nil {
		models = append(models, f84)
	}
	if hky, err := model.NewHKY85(freqs, 3.0); err == nil {
		models = append(models, hky)
	}
	rng := rand.New(rand.NewSource(17))
	for _, m := range models {
		e, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tree.RandomTree(taxaNames(5), rng, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.LogLikelihood(tr)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceLogLikelihood(m, p, tr)
		if math.Abs(got-want) > 1e-8*math.Abs(want) {
			t.Errorf("%s: pruning lnL %g vs brute force %g", m.Name(), got, want)
		}
	}
}

// TestRerootingInvariance: the likelihood is the same whichever edge it is
// evaluated across.
func TestRerootingInvariance(t *testing.T) {
	p, _ := mkPatterns(t,
		"ACGTACGTACGTACGTACGT",
		"ACGTACTTACGAACGTACGT",
		"CCGTACGTAGGTACGTACGA",
		"ACGAACGTACGTCCGTACGT",
		"ACGTACGTACTTACGTACCT",
		"TCGTACGTACGTACGTACGT")
	m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tr, _ := tree.RandomTree(taxaNames(6), rng, 0.2)
	e.ensureBuffers(tr.MaxID())
	var vals []float64
	for _, ed := range tr.Edges() {
		a := e.downPartial(ed.A, ed.B)
		// downPartial reuses buffers; copy side A before computing B.
		ac := clvRef{
			f64: append([]float64(nil), a.f64...),
			sc:  append([]int32(nil), a.sc...),
		}
		b := e.downPartial(ed.B, ed.A)
		vals = append(vals, e.edgeLogLikelihood(ac, b, ed.Length()))
	}
	for i := 1; i < len(vals); i++ {
		if math.Abs(vals[i]-vals[0]) > 1e-8*math.Abs(vals[0]) {
			t.Errorf("edge %d gives lnL %g, edge 0 gives %g", i, vals[i], vals[0])
		}
	}
}

// TestCompressionInvariance: compressed and uncompressed patterns give
// identical likelihoods.
func TestCompressionInvariance(t *testing.T) {
	rows := []string{
		"AACCGGTTAACCGGTTAACC",
		"AACCGGTTAACCGTTTAACC",
		"AACCGGTAAACCGGTTATCC",
		"CACCGGTTAACCGGTTAACC",
	}
	a := seq.NewAlignment(4)
	for i, r := range rows {
		if err := a.Add(fmt.Sprintf("t%02d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	pc, _ := seq.Compress(a, seq.CompressOptions{})
	pu, _ := seq.Compress(a, seq.CompressOptions{Disable: true})
	m := model.NewJC69()
	ec, _ := New(m, pc)
	eu, _ := New(m, pu)
	rng := rand.New(rand.NewSource(7))
	tr, _ := tree.RandomTree(taxaNames(4), rng, 0.1)
	lc, err := ec.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := eu.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lc-lu) > 1e-9*math.Abs(lu) {
		t.Errorf("compressed lnL %g != uncompressed %g", lc, lu)
	}
	if pc.NumPatterns() >= pu.NumPatterns() {
		t.Errorf("compression did not reduce patterns (%d vs %d)", pc.NumPatterns(), pu.NumPatterns())
	}
}

// TestJCDistanceRecovery: for two sequences under JC69, the ML branch
// length has the closed form -3/4 ln(1 - 4p/3).
func TestJCDistanceRecovery(t *testing.T) {
	// 100 sites, 10 mismatches: p = 0.1.
	s1 := ""
	s2 := ""
	for i := 0; i < 100; i++ {
		s1 += "A"
		if i < 10 {
			s2 += "C"
		} else {
			s2 += "A"
		}
	}
	p, _ := mkPatterns(t, s1, s2)
	e, err := New(model.NewJC69(), p)
	if err != nil {
		t.Fatal(err)
	}
	// A 2-leaf "tree": two leaves joined by one edge.
	tr := tree.New(taxaNames(2))
	l0, err := tr.GraftPair(0, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	_ = l0
	ed := tr.Edges()[0]
	if _, err := e.OptimizeEdge(tr, ed); err != nil {
		t.Fatal(err)
	}
	want := -0.75 * math.Log(1-4*0.1/3)
	if got := ed.Length(); math.Abs(got-want) > 1e-4 {
		t.Errorf("JC distance = %g, want %g", got, want)
	}
}

// TestOptimizeBranchesImproves: smoothing must never lower the likelihood
// and must beat the unoptimized starting point.
func TestOptimizeBranchesImproves(t *testing.T) {
	p, _ := mkPatterns(t,
		"ACGTACGTACGTACGTACGTACGTACGTACGT",
		"ACGTACTTACGAACGTACGTACGTACGAACGT",
		"CCGTACGTAGGTACGTACGACCGTACGTACGT",
		"ACGAACGTACGTCCGTACGTACGTACGTACGA",
		"ACGTACGTACTTACGTACCTACGTAGGTACGT")
	m, _ := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
	e, _ := New(m, p)
	rng := rand.New(rand.NewSource(23))
	tr, _ := tree.RandomTree(taxaNames(5), rng, 0.4)
	before, err := e.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	after, err := e.OptimizeBranches(tr, OptOptions{Passes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if after < before-1e-9 {
		t.Errorf("optimization lowered lnL: %g -> %g", before, after)
	}
	if after-before < 0.01 {
		t.Logf("warning: tiny improvement %g -> %g (random start may be near-optimal)", before, after)
	}
	// Re-evaluating must reproduce the returned value.
	check, _ := e.LogLikelihood(tr)
	if math.Abs(check-after) > 1e-8*math.Abs(after) {
		t.Errorf("returned lnL %g, re-evaluated %g", after, check)
	}
}

// TestOptimizeBranchesLocal: restricting to a neighborhood only changes
// nearby branch lengths.
func TestOptimizeBranchesLocal(t *testing.T) {
	p, _ := mkPatterns(t,
		"ACGTACGTACGTACGT",
		"ACGTACTTACGAACGT",
		"CCGTACGTAGGTACGT",
		"ACGAACGTACGTCCGT",
		"ACGTACGTACTTACGT",
		"TTGTACGTACGTACGT")
	m := model.NewJC69()
	e, _ := New(m, p)
	rng := rand.New(rand.NewSource(31))
	tr, _ := tree.RandomTree(taxaNames(6), rng, 0.2)
	leaf := tr.LeafByTaxon(3)
	att := leaf.Nbr[0]

	type lenKey struct{ a, b int }
	before := map[lenKey]float64{}
	for _, ed := range tr.Edges() {
		before[lenKey{ed.A.ID, ed.B.ID}] = ed.Length()
	}
	if _, err := e.OptimizeBranches(tr, OptOptions{Passes: 2, Around: att, Radius: 1}); err != nil {
		t.Fatal(err)
	}
	changedFar := 0
	for _, ed := range tr.Edges() {
		delta := math.Abs(before[lenKey{ed.A.ID, ed.B.ID}] - ed.Length())
		near := ed.A == att || ed.B == att
		if !near && delta > 1e-12 {
			changedFar++
		}
	}
	if changedFar > 0 {
		t.Errorf("%d branches outside the radius changed", changedFar)
	}
}

// TestScalingLargeTree: a deep tree must not underflow to -Inf and must
// match the likelihood structure of a small verification.
func TestScalingLargeTree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 64
	names := taxaNames(n)
	a := seq.NewAlignment(n)
	letters := "ACGT"
	for i := 0; i < n; i++ {
		row := make([]byte, 60)
		for s := range row {
			row[s] = letters[rng.Intn(4)]
		}
		if err := a.Add(names[i], string(row)); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := seq.Compress(a, seq.CompressOptions{})
	e, _ := New(model.NewJC69(), p)
	tr, _ := tree.RandomTree(names, rng, 2.0) // long branches stress underflow
	lnL, err := e.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(lnL, 0) || math.IsNaN(lnL) {
		t.Fatalf("lnL = %g (underflow not handled)", lnL)
	}
	if lnL >= 0 {
		t.Errorf("lnL = %g, expected negative", lnL)
	}
}

// TestIdenticalSequencesPreferZeroBranch: optimizing the branch between
// identical sequences drives it to the minimum.
func TestIdenticalSequencesPreferZeroBranch(t *testing.T) {
	row := "ACGTACGTACGTACGTACGTACGTACGTACGT"
	p, _ := mkPatterns(t, row, row)
	e, _ := New(model.NewJC69(), p)
	tr := tree.New(taxaNames(2))
	if _, err := tr.GraftPair(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	ed := tr.Edges()[0]
	if _, err := e.OptimizeEdge(tr, ed); err != nil {
		t.Fatal(err)
	}
	if ed.Length() > 1e-4 {
		t.Errorf("branch between identical sequences = %g, want ~%g", ed.Length(), MinBranchLength)
	}
}

// TestEdgeDerivativesFiniteDifference validates the analytic derivatives
// of the edge log-likelihood.
func TestEdgeDerivativesFiniteDifference(t *testing.T) {
	p, _ := mkPatterns(t,
		"ACGTACGTAC",
		"ACTTACGAAC",
		"CCGTAGGTAC",
		"AAGAACGTCC")
	m, _ := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
	e, _ := New(m, p)
	rng := rand.New(rand.NewSource(3))
	tr, _ := tree.RandomTree(taxaNames(4), rng, 0.2)
	e.ensureBuffers(tr.MaxID())
	ed := tr.Edges()[0]
	a := e.downPartial(ed.A, ed.B)
	ac := clvRef{
		f64: append([]float64(nil), a.f64...),
		sc:  append([]int32(nil), a.sc...),
	}
	b := e.downPartial(ed.B, ed.A)

	z := 0.13
	const h = 1e-6
	f := func(z float64) float64 { return e.edgeLogLikelihood(ac, b, z) }
	d1, d2 := e.edgeGradient(ac, b, z)
	fd1 := (f(z+h) - f(z-h)) / (2 * h)
	fd2 := (f(z+h) - 2*f(z) + f(z-h)) / (h * h)
	if math.Abs(d1-fd1) > 1e-4*(1+math.Abs(fd1)) {
		t.Errorf("d1 = %g, finite difference %g", d1, fd1)
	}
	if math.Abs(d2-fd2) > 1e-2*(1+math.Abs(fd2)) {
		t.Errorf("d2 = %g, finite difference %g", d2, fd2)
	}
}

// TestLikelihoodInvariantQuick: inserting and removing a taxon restores
// the previous likelihood.
func TestLikelihoodInvariantQuick(t *testing.T) {
	p, _ := mkPatterns(t,
		"ACGTACGTACGT",
		"ACTTACGAACGT",
		"CCGTAGGTACGT",
		"AAGAACGTCCGT",
		"AGGTACGTACCT")
	e, _ := New(model.NewJC69(), p)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := tree.RandomTree(taxaNames(5)[:4], rng, 0.2)
		if err != nil {
			return false
		}
		// Rebuild over 5 taxa names so taxon 4 can be added.
		tr5, err := tree.ParseNewick(tr.Newick(), taxaNames(5))
		if err != nil {
			return false
		}
		before, err := e.LogLikelihood(tr5)
		if err != nil {
			return false
		}
		edges := tr5.Edges()
		if _, err := tr5.InsertLeaf(4, edges[rng.Intn(len(edges))]); err != nil {
			return false
		}
		if err := tr5.RemoveLeaf(4); err != nil {
			return false
		}
		after, err := e.LogLikelihood(tr5)
		if err != nil {
			return false
		}
		return math.Abs(before-after) < 1e-9*math.Abs(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEngineErrors(t *testing.T) {
	p, _ := mkPatterns(t, "ACGT", "ACGA", "CCGT")
	e, _ := New(model.NewJC69(), p)
	// Tree over the wrong number of taxa.
	rng := rand.New(rand.NewSource(1))
	tr, _ := tree.RandomTree(taxaNames(5), rng, 0.1)
	if _, err := e.LogLikelihood(tr); err == nil {
		t.Error("mismatched taxon count should fail")
	}
}

func TestOpsCounterAdvances(t *testing.T) {
	p, _ := mkPatterns(t, "ACGTACGT", "ACGAACGT", "CCGTACGA")
	e, _ := New(model.NewJC69(), p)
	tr, _ := tree.Triple(taxaNames(3), 0, 1, 2)
	if _, err := e.LogLikelihood(tr); err != nil {
		t.Fatal(err)
	}
	if e.Ops() == 0 {
		t.Error("Ops counter did not advance")
	}
	prev := e.ResetOps()
	if prev == 0 || e.Ops() != 0 {
		t.Error("ResetOps did not reset")
	}
}

// TestRateHeterogeneityChangesLikelihood: supplying per-site rates must
// change the likelihood relative to uniform rates.
func TestRateHeterogeneityChangesLikelihood(t *testing.T) {
	rows := []string{
		"ACGTACGTACGTACGT",
		"ACTTACGAACGTACGT",
		"CCGTAGGTACGTACGA",
	}
	a := seq.NewAlignment(3)
	for i, r := range rows {
		_ = a.Add(fmt.Sprintf("t%02d", i), r)
	}
	rates := make([]float64, 16)
	for i := range rates {
		rates[i] = 0.25
		if i%2 == 0 {
			rates[i] = 1.75
		}
	}
	pr, _ := seq.Compress(a, seq.CompressOptions{Rates: rates})
	pu, _ := seq.Compress(a, seq.CompressOptions{})
	er, _ := New(model.NewJC69(), pr)
	eu, _ := New(model.NewJC69(), pu)
	rng := rand.New(rand.NewSource(2))
	tr, _ := tree.RandomTree(taxaNames(3), rng, 0.2)
	lr, err := er.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := eu.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lr-lu) < 1e-9 {
		t.Error("per-site rates had no effect on the likelihood")
	}
}

// TestEngineWithGTR: the engine works with the numerically-decomposed
// GTR model and agrees with F84 when the GTR exchangeabilities mimic it.
func TestEngineWithGTR(t *testing.T) {
	p, _ := mkPatterns(t,
		"ACGTACGTACGTACGT",
		"ACTTACGAACGTACGT",
		"CCGTAGGTACGTACGA",
		"AAGAACGTCCGTACGT")
	freqs := seq.EmpiricalFreqsPatterns(p)
	gtr, err := model.NewGTR(freqs, model.GTRRates{AC: 1, AG: 1, AT: 1, CG: 1, CT: 1, GT: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(gtr, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	tr, _ := tree.RandomTree(taxaNames(4), rng, 0.2)
	lnL, err := e.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(lnL) || lnL >= 0 {
		t.Fatalf("GTR lnL = %g", lnL)
	}
	// Brute force agreement for the numeric decomposition.
	want := bruteForceLogLikelihood(gtr, p, tr)
	if math.Abs(lnL-want) > 1e-8*math.Abs(want) {
		t.Errorf("GTR pruning lnL %g vs brute force %g", lnL, want)
	}
	// Newton works on the numeric decomposition too.
	after, err := e.OptimizeBranches(tr, OptOptions{Passes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if after < lnL-1e-9 {
		t.Errorf("GTR optimization lowered lnL: %g -> %g", lnL, after)
	}
}

// TestEngineWithDiscreteGammaRates: discrete-gamma category rates flow
// through pattern compression into the engine; more categories must not
// break invariants and must change the likelihood relative to uniform.
func TestEngineWithDiscreteGammaRates(t *testing.T) {
	rows := []string{
		"ACGTACGTACGTACGTTTTT",
		"ACTTACGAACGTACGTTTTA",
		"CCGTAGGTACGTACGATTTT",
		"AAGAACGTCCGTACGTTTCT",
	}
	a := seq.NewAlignment(4)
	for i, r := range rows {
		if err := a.Add(fmt.Sprintf("t%02d", i), r); err != nil {
			t.Fatal(err)
		}
	}
	cats, err := model.DiscreteGamma(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Assign categories round-robin across sites.
	rates := make([]float64, a.NumSites())
	for s := range rates {
		rates[s] = cats[s%len(cats)]
	}
	pg, err := seq.Compress(a, seq.CompressOptions{Rates: rates})
	if err != nil {
		t.Fatal(err)
	}
	pu, err := seq.Compress(a, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := model.NewJC69()
	eg, _ := New(m, pg)
	eu, _ := New(m, pu)
	rng := rand.New(rand.NewSource(6))
	tr, _ := tree.RandomTree(taxaNames(4), rng, 0.15)
	lg, err := eg.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := eu.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	if lg == lu {
		t.Error("gamma rates had no effect")
	}
	if math.IsNaN(lg) || math.IsInf(lg, 0) {
		t.Fatalf("lnL = %g", lg)
	}
	// Rate-class bookkeeping: 4 distinct rates -> at most 4 classes.
	if len(eg.classRates) > 4 {
		t.Errorf("%d rate classes for 4 categories", len(eg.classRates))
	}
}
