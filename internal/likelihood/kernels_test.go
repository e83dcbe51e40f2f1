package likelihood

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// vectorAndScalar builds two engines over the same data: one on the
// AVX2 kernels and one forced onto the scalar kernels by dropping its
// broadcast tables, both at the given thread count.
func vectorAndScalar(t *testing.T, m model.Model, p *seq.Patterns, threads int) (vec, sca *CachedEngine) {
	t.Helper()
	vec, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	sca, err = New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if vec.bc2 == nil {
		t.Fatal("vector engine has no broadcast tables despite AVX2")
	}
	sca.bc2 = nil // force segCombine2, segFold and segSpecEval
	vec.SetThreads(threads)
	sca.SetThreads(threads)
	t.Cleanup(func() { vec.Close(); sca.Close() })
	return vec, sca
}

// optimizeMatchesScalar evaluates and smooths the tree on a vector and a
// scalar engine: the log-likelihoods must be bit-identical and the
// optimized trees byte-identical.
func optimizeMatchesScalar(t *testing.T, name string, m model.Model, p *seq.Patterns, tr *tree.Tree, threads int) {
	t.Helper()
	vec, sca := vectorAndScalar(t, m, p, threads)
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
	// The smoothed tree's log-likelihood, through the edge kernels once
	// more on the refilled partials.
	if lv, err = vec.LogLikelihood(tv); err != nil {
		t.Fatal(err)
	}
	if ls, err = sca.LogLikelihood(ts); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(lv) != math.Float64bits(ls) {
		t.Errorf("%s: vector lnL after smoothing %.17g not bit-identical to scalar %.17g", name, lv, ls)
	}
	if threads > 1 {
		requirePooled(t, name+" vector", vec)
		requirePooled(t, name+" scalar", sca)
	}
}

// TestVectorCombine2MatchesScalar pins the AVX2 kernels to the scalar
// reference bit for bit: an engine with the vector path enabled must
// produce byte-identical log-likelihoods, optimized branch lengths, and
// trees to one forced onto the scalar kernels — including on the deep
// caterpillar, where the vector combine's bail-to-scalar rescale
// protocol is exercised heavily. TestVectorFoldMatchesScalar runs the
// same at two threads.
func TestVectorCombine2MatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 kernel unavailable on this host")
	}
	m, p, tr := threadFixture(t, 17, 14, 500)
	optimizeMatchesScalar(t, "random", m, p, tr, 1)
	mc, pc, trc := caterpillarFixture(t, 43, 40, 250)
	optimizeMatchesScalar(t, "caterpillar", mc, pc, trc, 1)
}

// TestVectorFoldMatchesScalar pins foldAVX2 and specEvalAVX2 to segFold
// and segSpecEval bit for bit. For the five models, one and four rate
// classes and one and two threads, a fold leaves bit-identical spectral
// lanes and every derivative evaluation — the fused fold+eval and a
// later iterate's eval, at every length of
// TestFoldMatchesDirectDerivatives — bit-identical d1 and d2. The shard
// cuts fall mid-block, so the segments have every real length mod 4;
// each owns whole groups, so the vector kernels run over its zero-padded
// last group where the scalar ones stop at its last pattern. Then both
// fixtures are smoothed at two threads, and the floor is checked kernel
// to kernel on the values that decide it, on a segment that ends
// mid-group, so the wrapper's scalar tail runs too.
func TestVectorFoldMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 kernel unavailable on this host")
	}
	lengths := []float64{MinBranchLength, 3e-7, 1e-3, 0.07, 0.9, 4, MaxBranchLength}
	rng := rand.New(rand.NewSource(31))
	p0, _ := mkPatterns(t, randomRows(rng, 10, 3800)...)
	var residues [4]bool
	for _, m := range foldModels(t) {
		for _, classes := range [][]float64{{1}, {0.25, 1, 3, 0.6}} {
			p := *p0
			p.Rates = make([]float64, len(p0.Rates))
			for i := range p.Rates {
				p.Rates[i] = classes[i%len(classes)]
			}
			for _, threads := range []int{1, 2} {
				vec, sca := vectorAndScalar(t, m, &p, threads)
				if len(vec.shards) < 4 {
					t.Fatalf("fixture: %d shards", len(vec.shards))
				}
				for _, sh := range vec.shards {
					for _, seg := range sh.segs {
						residues[(seg.hi-seg.lo)%4] = true
					}
				}
				a, b, _, _ := foldVectors(vec, rng)
				name := fmt.Sprintf("%s classes=%d threads=%d", m.Name(), len(classes), threads)
				for i, z := range lengths {
					v1, v2 := vec.edgeGradient(a, b, z)
					s1, s2 := sca.edgeGradient(a, b, z)
					for j := range vec.spec {
						if math.Float64bits(vec.spec[j]) != math.Float64bits(sca.spec[j]) {
							t.Fatalf("%s z=%g: lane %d entry %d: vector %.17g, scalar %.17g",
								name, z, j/vec.npad, j%vec.npad, vec.spec[j], sca.spec[j])
						}
					}
					sameBits(t, name+" fold", z, v1, v2, s1, s2)
					z2 := lengths[(i+3)%len(lengths)]
					v1, v2 = vec.specGradient(kSpecEval, z2)
					s1, s2 = sca.specGradient(kSpecEval, z2)
					sameBits(t, name+" eval", z2, v1, v2, s1, s2)
				}
				if threads > 1 {
					requirePooled(t, name+" vector", vec)
					requirePooled(t, name+" scalar", sca)
				}
			}
		}
	}
	if residues != [4]bool{true, true, true, true} {
		t.Errorf("segment lengths mod 4 seen: %v, want all four", residues)
	}

	m, p, tr := threadFixture(t, 17, 14, 2400)
	optimizeMatchesScalar(t, "random", m, p, tr, 2)
	mc, pc, trc := caterpillarFixture(t, 43, 40, 2100)
	optimizeMatchesScalar(t, "caterpillar", mc, pc, trc, 2)

	t.Run("floor", testVectorEvalFloor)
}

// sameBits fails unless the vector and scalar derivatives are the same
// float64 bits.
func sameBits(t *testing.T, name string, z, v1, v2, s1, s2 float64) {
	t.Helper()
	if math.Float64bits(v1) != math.Float64bits(s1) || math.Float64bits(v2) != math.Float64bits(s2) {
		t.Errorf("%s z=%g: vector (%.17g, %.17g), scalar (%.17g, %.17g)", name, z, v1, v2, s1, s2)
	}
}

// testVectorEvalFloor runs specEvalF64 and segSpecEval over an 11-pattern
// segment (two vector groups and a scalar tail) in which one pattern's
// likelihood is a value the floor decides — NaN (kept, so the sums turn
// NaN), ±0, a subnormal and half the floor (raised to it), the floor
// itself (kept) — at every position and with weight 0 and 2. The
// accumulators must agree bit for bit, NaN included.
func testVectorEvalFloor(t *testing.T) {
	const npad, n = 16, 11
	negZero := math.Copysign(0, -1)
	specials := []struct {
		name string
		l    float64
	}{
		{"NaN", math.NaN()},
		{"+0", 0},
		{"-0", negZero},
		{"subnormal", 5e-320},
		{"half floor", minSiteLik / 2},
		{"floor", minSiteLik},
	}
	// x1 = −0 makes l = s0 + v1·x1 exactly s0, −0 included; dl and ddl
	// stay small enough that a floored pattern's terms are finite.
	var c specCoef
	c.fill([]float64{0, -1.3}, 0.1, 1)
	c.x[1] = [4]float64{negZero, negZero, negZero, negZero}
	rng := rand.New(rand.NewSource(3))
	for _, sp := range specials {
		for pos := 0; pos < n; pos++ {
			for _, wt := range []float64{0, 2} {
				spec := make([]float64, 2*npad)
				w := make([]float64, npad)
				for i := 0; i < n; i++ {
					spec[i] = 0.2 + rng.Float64()
					spec[npad+i] = 0.1 * rng.Float64()
					w[i] = float64(1 + rng.Intn(3))
				}
				spec[pos], spec[npad+pos], w[pos] = sp.l, 1e-302, wt
				acc0 := gradAcc{d1: 0.5, d2: -0.25}
				got := specEvalF64(spec, w, &c, 2, npad, 0, n, acc0)
				want := segSpecEval(spec, w, &c, 2, npad, 0, n, acc0)
				if math.Float64bits(got.d1) != math.Float64bits(want.d1) || math.Float64bits(got.d2) != math.Float64bits(want.d2) {
					t.Errorf("l = %s at pattern %d, weight %g: vector (%.17g, %.17g), scalar (%.17g, %.17g)",
						sp.name, pos, wt, got.d1, got.d2, want.d1, want.d2)
				}
				if isNaN := math.IsNaN(want.d1); isNaN != (sp.name == "NaN") {
					t.Errorf("l = %s at pattern %d, weight %g: scalar d1 %g", sp.name, pos, wt, want.d1)
				}
			}
		}
	}
}

// lnlCase is one input of the edge log-likelihood kernels: the patterns
// [lo, lo+n) of a pair of SoA CLVs with npad entries per lane.
type lnlCase struct {
	a, b        []float64
	asc, bsc    []int32
	w           []float64
	pm          model.PMatrix
	f           [4]float64
	npad, lo, n int
	acc         float64
}

func newLnLCase(npad, lo, n int) *lnlCase {
	return &lnlCase{
		a: make([]float64, 4*npad), b: make([]float64, 4*npad),
		asc: make([]int32, npad), bsc: make([]int32, npad), w: make([]float64, npad),
		npad: npad, lo: lo, n: n,
	}
}

// identity makes pattern sums exact: P = I and f0 = 1, so a pattern set
// by setLkl has the site likelihood it was given.
func (c *lnlCase) identity(f1, f2, f3 float64) {
	c.pm = model.PMatrix{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	c.f = [4]float64{1, f1, f2, f3}
}

// setLkl sets pattern i to a = (x, 0, 0, 0), b = (1, 0, 0, 0): under
// identity its site likelihood is 0 + x + 0 + 0 + 0, x itself but for −0.
func (c *lnlCase) setLkl(i int, x float64) {
	for s := 0; s < 4; s++ {
		c.a[s*c.npad+i], c.b[s*c.npad+i] = 0, 0
	}
	c.a[i], c.b[i] = x, 1
}

// run returns the vector wrapper's and the scalar kernel's sums.
func (c *lnlCase) run() (vec, sca float64) {
	var tab lnlTable
	tab.init(&c.f)
	tab.setP(&c.pm)
	vec = edgeLnLF64(c.a, c.b, c.asc, c.bsc, c.w, &c.pm, &c.f, &tab, c.npad, c.lo, c.n, c.acc)
	sca = segEdgeLnL(c.a, c.b, c.asc, c.bsc, c.w, &c.pm, &c.f, c.npad, c.lo, c.n, c.acc)
	return vec, sca
}

// lnlSpecials are the site likelihoods the floor and the logarithm's
// special cases decide: ±0, subnormals, the floor itself, negatives,
// ±Inf, NaN of both signs, MaxFloat64, 1, and x exactly at and one ulp
// beside √2/2·2^k, where archLog's "not less than" compare halves f1.
func lnlSpecials() []float64 {
	v := []float64{
		0, math.Copysign(0, -1), 5e-320, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		-1.5, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
		math.Float64frombits(0xFFF4000000000000), math.MaxFloat64, 1, 0.5, 2,
	}
	for _, k := range []int{-1040, -1022, -1000, -50, -1, 0, 1, 32, 1000, 1023} {
		x := math.Ldexp(math.Sqrt2/2, k)
		v = append(v, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	return v
}

// TestVectorEdgeLnLMatchesScalar pins edgeLnLF64 — edgeLnLAVX2 with its
// replica of math.Log, and the scalar tail — to segEdgeLnL bit for bit.
// Segments of 1–40 patterns at every residue mod 4 and every offset mod
// 4, half of them on the identity matrix so a pattern's site likelihood
// is exactly a chosen value (lnlSpecials, random magnitudes across the
// subnormal-to-MaxFloat64 range, or random bits), half on F84 and HKY85
// matrices over random CLVs with specials planted in a lane; scale
// counts 0–4, weights 0–3, a zero or random starting sum.
func TestVectorEdgeLnLMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 kernel unavailable on this host")
	}
	rng := rand.New(rand.NewSource(41))
	specials := lnlSpecials()
	var mats []model.PMatrix
	for _, m := range foldModels(t)[2:4] {
		for _, z := range []float64{MinBranchLength, 0.01, 0.3, 2.5, MaxBranchLength} {
			var pm model.PMatrix
			m.Decomposition().Probs(z, 1.3, &pm)
			mats = append(mats, pm)
		}
	}
	lkl := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return math.Ldexp(1+rng.Float64(), rng.Intn(2100)-1075)
		}
		return math.Float64frombits(rng.Uint64())
	}
	var residues [4]bool
	for trial := 0; trial < 6000; trial++ {
		n, lo := 1+rng.Intn(40), rng.Intn(8)
		c := newLnLCase(lo+n+rng.Intn(4), lo, n)
		residues[n%4] = true
		plain := trial%2 == 0
		if plain {
			c.identity(rng.Float64(), rng.Float64(), rng.Float64())
		} else {
			c.pm, c.f = mats[rng.Intn(len(mats))], [4]float64{0.31, 0.19, 0.27, 0.23}
		}
		for i := lo; i < lo+n; i++ {
			if plain {
				c.setLkl(i, lkl())
			} else {
				scale := math.Exp(-700 * rng.Float64() * rng.Float64())
				for s := 0; s < 4; s++ {
					c.a[s*c.npad+i] = scale * rng.Float64()
					c.b[s*c.npad+i] = rng.Float64()
				}
				if rng.Intn(8) == 0 {
					c.a[rng.Intn(4)*c.npad+i] = specials[rng.Intn(len(specials))]
				}
			}
			c.asc[i], c.bsc[i] = int32(rng.Intn(5)), int32(rng.Intn(5))
			c.w[i] = float64(rng.Intn(4))
		}
		if rng.Intn(2) == 0 {
			c.acc = -1000 * rng.Float64()
		}
		if vec, sca := c.run(); math.Float64bits(vec) != math.Float64bits(sca) {
			t.Fatalf("trial %d (n=%d, lo=%d, identity %v): vector %#x (%.17g), scalar %#x (%.17g)",
				trial, n, lo, plain, math.Float64bits(vec), vec, math.Float64bits(sca), sca)
		}
	}
	if residues != [4]bool{true, true, true, true} {
		t.Errorf("segment lengths mod 4 seen: %v, want all four", residues)
	}

	// The logarithm lane by lane: in a group whose other three lanes
	// weigh 0, with no scale events and a zero starting sum, the result
	// is log(x) itself. Every special and √2/2·2^k for every k goes
	// through, then random x, most of them in [√2/4, 2√2), where the
	// polynomial term s·(hfsq+R) is largest against the result, so a
	// reassociated or reordered step shows in its last bit. (At
	// x = √2/2·2^32 the "not less than" compare decides the last bit.)
	xs := slices.Clone(specials)
	for k := -1074; k <= 1023; k++ {
		xs = append(xs, math.Ldexp(math.Sqrt2/2, k))
	}
	for trial := 0; trial < 120000; trial++ {
		var x float64
		switch {
		case trial < len(xs):
			x = xs[trial]
		case trial%4 < 2:
			x = math.Ldexp(0.5+1.5*rng.Float64(), rng.Intn(3)-1)
		case trial%4 == 2:
			x = math.Float64frombits(rng.Uint64())
		default:
			x = lkl()
		}
		c := newLnLCase(4, 0, 4)
		c.identity(0.5, 0.5, 0.5)
		lane := trial % 4
		for i := 0; i < 4; i++ {
			c.setLkl(i, 0.75)
		}
		c.setLkl(lane, x)
		c.w[lane] = 1
		if vec, sca := c.run(); math.Float64bits(vec) != math.Float64bits(sca) {
			t.Fatalf("log(%#x = %.17g) in lane %d: vector %#x, scalar %#x",
				math.Float64bits(x), x, lane, math.Float64bits(vec), math.Float64bits(sca))
		}
	}
}

// FuzzVectorEdgeLnL requires edgeLnLF64 and segEdgeLnL to agree bit for
// bit on one 4-pattern group whose site likelihoods are any float64 bit
// patterns. The input is read little-endian, zero-extended to 68 bytes:
// four site likelihoods (8 bytes each), four a-side and four b-side
// scale counts (int32 each, so their sum may wrap, in both kernels
// alike) and four weights (one byte each).
func FuzzVectorEdgeLnL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if !useAVX2 {
			t.Skip("AVX2 kernel unavailable on this host")
		}
		var buf [68]byte
		copy(buf[:], data)
		c := newLnLCase(4, 0, 4)
		c.identity(0.25, 0.25, 0.25)
		for i := 0; i < 4; i++ {
			c.setLkl(i, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
			c.asc[i] = int32(binary.LittleEndian.Uint32(buf[32+4*i:]))
			c.bsc[i] = int32(binary.LittleEndian.Uint32(buf[48+4*i:]))
			c.w[i] = float64(buf[64+i])
		}
		if vec, sca := c.run(); math.Float64bits(vec) != math.Float64bits(sca) {
			t.Fatalf("vector %#x (%.17g), scalar %#x (%.17g)",
				math.Float64bits(vec), vec, math.Float64bits(sca), sca)
		}
	})
}

// TestCombineSequenceMatchesCombine2 pins what the multifurcation path
// rests on: a first combine followed by a last combine with rescaling
// gives segCombine2's bits, values and scale counts alike, on random
// lanes some of which underflow and are rescaled (and one pattern is all
// zero, which is never rescaled).
func TestCombineSequenceMatchesCombine2(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const npad, lo, n = 64, 8, 50
	var ma, mb model.PMatrix
	for j := range 4 {
		for k := range 4 {
			ma[j][k], mb[j][k] = rng.Float64(), rng.Float64()
		}
	}
	clv := func() []float64 {
		v := make([]float64, 4*npad)
		for i := range npad {
			mag := math.Pow(10, -80*rng.Float64())
			for l := range 4 {
				v[l*npad+i] = rng.Float64() * mag
			}
		}
		return v
	}
	scales := func() []int32 {
		s := make([]int32, npad)
		for i := range s {
			s[i] = int32(rng.Intn(4))
		}
		return s
	}
	a, b, asc, bsc := clv(), clv(), scales(), scales()
	for l := range 4 {
		a[l*npad+lo+3] = 0
	}

	want, wsc := make([]float64, 4*npad), make([]int32, npad)
	segCombine2(want, a, b, &ma, &mb, wsc, asc, bsc, npad, lo, n)
	got, gsc := make([]float64, 4*npad), make([]int32, npad)
	segCombineInto(got, a, &ma, gsc, asc, npad, lo, n, true, false)
	segCombineInto(got, b, &mb, gsc, bsc, npad, lo, n, false, true)

	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("lane %d pattern %d: sequence %v, combine2 %v", i/npad, i%npad, got[i], want[i])
		}
	}
	rescaled := 0
	for i := lo; i < lo+n; i++ {
		if gsc[i] != wsc[i] {
			t.Fatalf("pattern %d: sequence scale %d, combine2 scale %d", i, gsc[i], wsc[i])
		}
		if wsc[i] > asc[i]+bsc[i] {
			rescaled++
		}
	}
	if rescaled == 0 || rescaled == n {
		t.Fatalf("%d of %d patterns rescaled; the lanes must mix both cases", rescaled, n)
	}
}
