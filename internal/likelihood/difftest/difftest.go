// Package difftest is the differential cross-validation harness for
// likelihood.Engine backends: it runs any two registered engines over
// seeded randomized data sets, models, trees, and branch lengths, and
// asserts that they agree on total log-likelihoods, per-site
// log-likelihoods, and Newton-optimized branch lengths within a
// documented tolerance.
//
// This is the machine-checked half of the Engine interface contract
// (DESIGN.md §5): review establishes that a new backend implements the
// right algorithm; the harness establishes that its numbers match the
// reference implementation on thousands of randomized inputs, including
// rate heterogeneity, ambiguity codes, every substitution model, and
// deep-rescale geometries. Every future backend (low-memory, FFI,
// GPU) gets correctness enforcement by adding one table line, not a
// bespoke test suite.
//
// Tolerances are explicit: two engines differ only by floating-point
// summation order, so they must agree tightly (though not bitwise — the
// harness compares across genuinely different computation orders).
package difftest

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Tolerance bounds the allowed disagreement between the two engines.
// Each comparison passes when the difference is within the absolute
// bound OR the relative bound scaled by the reference magnitude.
type Tolerance struct {
	// LnLRel/LnLAbs bound total log-likelihood disagreement on the
	// plain (fixed-branch-length) evaluation: pure summation-order
	// noise, so tight.
	LnLRel, LnLAbs float64
	// SiteRel/SiteAbs bound per-site (per-pattern) log-likelihoods.
	SiteRel, SiteAbs float64
	// OptRel/OptAbs bound the post-optimization log-likelihood. Looser
	// than LnL*: Newton stops within newtonTol of a stationary point
	// from either side, so the engines return slightly different — both
	// valid — trees whose likelihoods differ by more than evaluation
	// noise on the *same* tree would.
	OptRel, OptAbs float64
	// LenRel/LenAbs bound optimized branch lengths.
	LenRel, LenAbs float64
}

// DefaultTolerance returns the documented tolerance for comparing two
// engines. Both accumulate in float64 and walk the same Newton policy, so
// log-likelihoods agree to ~1e-10 relative and the bounds below carry an
// order of magnitude of slack. Branch lengths get a looser bound than
// likelihoods: Newton stops within newtonTol of a stationary point from
// either side, and near-flat likelihood surfaces amplify last-iterate
// differences without changing the likelihood.
//
// CLVs are float64 only, so the precision argument selects nothing; it
// remains because the benchmark module passes one (ROADMAP item 10).
func DefaultTolerance(likelihood.Precision) Tolerance {
	return Tolerance{
		LnLRel: 1e-9, LnLAbs: 1e-7,
		SiteRel: 1e-8, SiteAbs: 1e-7,
		OptRel: 1e-7, OptAbs: 1e-4,
		LenRel: 5e-4, LenAbs: 1e-5,
	}
}

// Options configure one harness run.
type Options struct {
	// EngineA and EngineB name the two registered backends to compare
	// (empty selects likelihood.DefaultEngine).
	EngineA, EngineB string
	// Cases is the number of seeded random cases (default 50).
	Cases int
	// Seed drives case generation; case i uses Seed+i, so any failing
	// case is reproducible in isolation.
	Seed int64
	// MinTaxa/MaxTaxa bound the random taxon count (defaults 4..14).
	MinTaxa, MaxTaxa int
	// MinSites/MaxSites bound the random alignment length
	// (defaults 60..240).
	MinSites, MaxSites int
	// Passes is the branch-smoothing pass count (default 3).
	Passes int
	// Tol overrides the tolerance; the zero value selects
	// DefaultTolerance.
	Tol Tolerance
}

func (o Options) withDefaults() Options {
	if o.Cases <= 0 {
		o.Cases = 50
	}
	if o.MinTaxa < 4 {
		o.MinTaxa = 4
	}
	if o.MaxTaxa < o.MinTaxa {
		o.MaxTaxa = o.MinTaxa + 10
	}
	if o.MinSites <= 0 {
		o.MinSites = 60
	}
	if o.MaxSites < o.MinSites {
		o.MaxSites = o.MinSites + 180
	}
	if o.Passes <= 0 {
		o.Passes = 3
	}
	if o.Tol == (Tolerance{}) {
		o.Tol = DefaultTolerance(likelihood.Float64)
	}
	return o
}

// Report summarizes a harness run: the worst observed disagreements and
// every tolerance violation, one line each, seed included.
type Report struct {
	// Cases is the number of cases actually run.
	Cases int
	// MaxLnLDiff, MaxSiteDiff, MaxLenDiff are the largest absolute
	// disagreements observed across all cases (violating or not).
	MaxLnLDiff, MaxSiteDiff, MaxLenDiff float64
	// Failures lists every tolerance violation.
	Failures []string
}

// within reports agreement under the combined relative/absolute bound.
func within(got, want, rel, abs float64) bool {
	d := math.Abs(got - want)
	return d <= abs || d <= rel*math.Abs(want)
}

// Run executes the harness and returns the report. A non-nil error means
// the harness itself could not run (unknown engine name, construction
// failure); tolerance violations are reported in Report.Failures, not as
// errors.
func Run(opt Options) (Report, error) {
	opt = opt.withDefaults()
	if _, err := likelihood.ParseEngine(opt.EngineA); err != nil {
		return Report{}, err
	}
	if _, err := likelihood.ParseEngine(opt.EngineB); err != nil {
		return Report{}, err
	}
	var rep Report
	for i := 0; i < opt.Cases; i++ {
		seed := opt.Seed + int64(i)
		if err := runCase(opt, seed, &rep); err != nil {
			return rep, fmt.Errorf("difftest: case seed=%d: %w", seed, err)
		}
		rep.Cases++
	}
	return rep, nil
}

// runCase generates one random dataset/model/tree and compares the two
// engines on it.
func runCase(opt Options, seed int64, rep *Report) error {
	rng := rand.New(rand.NewSource(seed))
	taxa := opt.MinTaxa + rng.Intn(opt.MaxTaxa-opt.MinTaxa+1)
	sites := opt.MinSites + rng.Intn(opt.MaxSites-opt.MinSites+1)

	m, p, tr, err := randomCase(rng, taxa, sites)
	if err != nil {
		return err
	}
	ea, err := likelihood.NewEngine(opt.EngineA, m, p, likelihood.EngineOptions{})
	if err != nil {
		return err
	}
	defer likelihood.CloseEngine(ea)
	eb, err := likelihood.NewEngine(opt.EngineB, m, p, likelihood.EngineOptions{})
	if err != nil {
		return err
	}
	defer likelihood.CloseEngine(eb)

	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("seed=%d taxa=%d sites=%d model=%s: %s",
				seed, taxa, sites, m.Name(), fmt.Sprintf(format, args...)))
	}
	if err := compare(opt, ea, eb, tr, fail, rep); err != nil {
		return err
	}

	// The same case once more on a copy with internal edges collapsed,
	// so that nodes of degree four and more (user trees, DNArates on a
	// consensus tree) meet the reference too. The collapse is drawn after
	// every draw above, which leaves the binary comparison as it was.
	mt, err := collapse(rng, tr)
	if err != nil {
		return err
	}
	multi := func(format string, args ...any) { fail("multifurcating: "+format, args...) }
	return compare(opt, ea, eb, mt, multi, rep)
}

// cherry matches a group of leaves with its branch length: the subtree
// below an internal edge whose far side holds no internal node.
var cherry = regexp.MustCompile(`\(([^()]*)\):[^,()]*`)

// collapse returns a copy of tr with one or two of its internal edges
// contracted. The copy goes through Newick: dropping a cherry's
// parentheses and length joins its leaves to the node above, and a
// second collapse may join that node's group to the one above it.
func collapse(rng *rand.Rand, tr *tree.Tree) (*tree.Tree, error) {
	s, err := tr.WriteNewick(tree.WriteNewickOptions{Lengths: true, Precision: 17})
	if err != nil {
		return nil, err
	}
	for k := 1 + rng.Intn(2); k > 0; k-- {
		m := cherry.FindAllStringSubmatchIndex(s, -1)
		if len(m) == 0 {
			break
		}
		g := m[rng.Intn(len(m))]
		s = s[:g[0]] + s[g[2]:g[3]] + s[g[1]:]
	}
	return tree.ParseNewick(s, tr.Taxa)
}

// compare runs both engines on tree tr — plain evaluation, per-site
// log-likelihoods, branch optimization — reporting disagreements
// through fail.
func compare(opt Options, ea, eb likelihood.Engine, tr *tree.Tree, fail func(string, ...any), rep *Report) error {
	// Plain evaluation.
	ta, tb := tr.Clone(), tr.Clone()
	la, err := ea.LogLikelihood(ta)
	if err != nil {
		return err
	}
	lb, err := eb.LogLikelihood(tb)
	if err != nil {
		return err
	}
	if d := math.Abs(la - lb); d > rep.MaxLnLDiff {
		rep.MaxLnLDiff = d
	}
	if !within(lb, la, opt.Tol.LnLRel, opt.Tol.LnLAbs) {
		fail("lnL %.12g (%s) vs %.12g (%s), diff %.3g",
			la, opt.EngineA, lb, opt.EngineB, math.Abs(la-lb))
	}

	// Per-site log-likelihoods. Both slices may be engine-owned; compare
	// before any further evaluation on either engine.
	sa, err := ea.SiteLogLikelihoods(ta)
	if err != nil {
		return err
	}
	sa = append([]float64(nil), sa...)
	sb, err := eb.SiteLogLikelihoods(tb)
	if err != nil {
		return err
	}
	if len(sa) != len(sb) {
		fail("site lnL length %d vs %d", len(sa), len(sb))
	} else {
		for s := range sa {
			if d := math.Abs(sa[s] - sb[s]); d > rep.MaxSiteDiff {
				rep.MaxSiteDiff = d
			}
			if !within(sb[s], sa[s], opt.Tol.SiteRel, opt.Tol.SiteAbs) {
				fail("site %d lnL %.12g vs %.12g", s, sa[s], sb[s])
				break
			}
		}
	}

	// Branch optimization: same starting tree, same pass budget; final
	// likelihoods and every optimized length must agree.
	oa, err := ea.OptimizeBranches(ta, likelihood.OptOptions{Passes: opt.Passes})
	if err != nil {
		return err
	}
	ob, err := eb.OptimizeBranches(tb, likelihood.OptOptions{Passes: opt.Passes})
	if err != nil {
		return err
	}
	if d := math.Abs(oa - ob); d > rep.MaxLnLDiff {
		rep.MaxLnLDiff = d
	}
	if !within(ob, oa, opt.Tol.OptRel, opt.Tol.OptAbs) {
		fail("optimized lnL %.12g vs %.12g, diff %.3g", oa, ob, math.Abs(oa-ob))
	}
	ea2, eb2 := ta.Edges(), tb.Edges()
	if len(ea2) != len(eb2) {
		fail("edge count %d vs %d after optimization", len(ea2), len(eb2))
		return nil
	}
	for i := range ea2 {
		if ea2[i].A.ID != eb2[i].A.ID || ea2[i].B.ID != eb2[i].B.ID {
			fail("edge %d identity diverged", i)
			return nil
		}
		ga, gb := ea2[i].Length(), eb2[i].Length()
		if d := math.Abs(ga - gb); d > rep.MaxLenDiff {
			rep.MaxLenDiff = d
		}
		if !within(gb, ga, opt.Tol.LenRel, opt.Tol.LenAbs) {
			fail("edge %d-%d length %.9g vs %.9g", ea2[i].A.ID, ea2[i].B.ID, ga, gb)
		}
	}
	return nil
}

// randomCase builds one random dataset, substitution model, and starting
// tree. Sequences are site-correlated across taxa (so trees are
// informative) with a sprinkle of ambiguity codes; per-site rates are
// drawn from a random small class set about half the time; the model
// cycles through F84, JC69, HKY85, and GTR with randomized parameters.
func randomCase(rng *rand.Rand, taxa, sites int) (model.Model, *seq.Patterns, *tree.Tree, error) {
	const bases = "ACGT"
	const ambig = "NRY-"
	rows := make([]string, taxa)
	buf := make([]byte, sites)
	for i := range rows {
		for s := range buf {
			switch {
			case i > 0 && rng.Float64() < 0.7:
				buf[s] = rows[i-1][s]
			case rng.Float64() < 0.02:
				buf[s] = ambig[rng.Intn(len(ambig))]
			default:
				buf[s] = bases[rng.Intn(4)]
			}
		}
		rows[i] = string(buf)
	}
	names := make([]string, taxa)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
	}
	a := seq.NewAlignment(taxa)
	for i, r := range rows {
		if err := a.Add(names[i], r); err != nil {
			return nil, nil, nil, err
		}
	}
	var rates []float64
	if rng.Float64() < 0.5 {
		classes := []float64{0.2 + rng.Float64(), 1.0, 1.0 + 2*rng.Float64()}
		rates = make([]float64, sites)
		for s := range rates {
			rates[s] = classes[rng.Intn(len(classes))]
		}
	}
	p, err := seq.Compress(a, seq.CompressOptions{Rates: rates})
	if err != nil {
		return nil, nil, nil, err
	}

	freqs := seq.EmpiricalFreqsPatterns(p)
	var m model.Model
	switch rng.Intn(4) {
	case 0:
		m, err = model.NewF84(freqs, 1.5+2.5*rng.Float64())
	case 1:
		m = model.NewJC69()
	case 2:
		m, err = model.NewHKY85(freqs, 1.5+2.5*rng.Float64())
	default:
		m, err = model.NewGTR(freqs, model.GTRRates{
			AC: 0.5 + rng.Float64(), AG: 1 + 2*rng.Float64(), AT: 0.5 + rng.Float64(),
			CG: 0.5 + rng.Float64(), CT: 1 + 2*rng.Float64(), GT: 0.5 + rng.Float64(),
		})
	}
	if err != nil {
		return nil, nil, nil, err
	}

	tr, err := tree.RandomTree(names, rng, 0.03+0.4*rng.Float64())
	if err != nil {
		return nil, nil, nil, err
	}
	return m, p, tr, nil
}
