package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// TestShardSegmentsOwnWholeGroups checks the padded layout buildShards
// gives every pattern count from 1 to 3001 over one and over four
// rate-class blocks: the shard cuts stay at s·npat/n on the real axis;
// every segment starts at a multiple of 4 and owns ⌈n/4⌉·4 entries, every
// block's first segment starts at a multiple of clvBlock; segments are
// disjoint and inside npad. Engines over chosen counts (the 64–71 band
// where sharding starts, 300, 3000, 3001) at one and two threads then
// must hold zero in every padding entry of the tips and weights, map the
// padded axis onto the real patterns one to one, and give the same lnL,
// d1/d2 and site log-likelihood bits on the vector and scalar kernels.
func TestShardSegmentsOwnWholeGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for npat := 1; npat <= 3001; npat++ {
		for _, classes := range []int{1, 4} {
			blocks := randomBlocks(rng, npat, classes)
			shards, npad := buildShards(blocks, npat)
			if err := checkLayout(blocks, shards, npad, npat); err != nil {
				t.Fatalf("npat=%d classes=%d: %v", npat, classes, err)
			}
		}
	}

	if !useAVX2 {
		t.Skip("AVX2 kernel unavailable on this host")
	}
	m, err := model.NewF84(seq.BaseFreqs{0.31, 0.19, 0.27, 0.23}, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, npat := range []int{1, 2, 3, 5, 64, 65, 66, 67, 68, 69, 70, 71, 300, 3000, 3001} {
		for _, classes := range [][]float64{{1}, {0.25, 1, 3, 0.6}} {
			p, tr := layoutFixture(rng, npat, classes)
			for _, threads := range []int{1, 2} {
				name := fmt.Sprintf("npat=%d classes=%d threads=%d", npat, len(classes), threads)
				vec, sca := vectorAndScalar(t, m, p, threads)
				if err := checkPadding(vec); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameEngineBits(t, name, vec, sca, tr)
				// Over the floor the pool runs; under it, nothing is dispatched.
				pooled := threads > 1 && len(vec.shards) > 1 && vec.npad >= MinPoolPad
				for _, e := range []*CachedEngine{vec, sca} {
					if got := e.Stats().ShardDispatches > 0; got != pooled {
						t.Errorf("%s: %d pool dispatches over %d padded patterns, floor %d",
							name, e.Stats().ShardDispatches, e.npad, MinPoolPad)
					}
				}
			}
		}
	}
}

// randomBlocks cuts [0, npat) into up to classes non-empty blocks.
func randomBlocks(rng *rand.Rand, npat, classes int) []classBlock {
	cuts := []int{0, npat}
	for len(cuts) < classes+1 && len(cuts) < npat+1 {
		c := 1 + rng.Intn(max(npat-1, 1))
		if !slices.Contains(cuts, c) {
			cuts = append(cuts, c)
		}
	}
	slices.Sort(cuts)
	var blocks []classBlock
	for i := 0; i+1 < len(cuts); i++ {
		blocks = append(blocks, classBlock{ci: i, lo: cuts[i], hi: cuts[i+1]})
	}
	return blocks
}

// checkLayout verifies one buildShards layout.
func checkLayout(blocks []classBlock, shards []shard, npad, npat int) error {
	if npad%clvBlock != 0 {
		return fmt.Errorf("npad %d not a multiple of %d", npad, clvBlock)
	}
	owned := make([]bool, npad)
	next := 0
	for s, sh := range shards {
		if lo := s * npat / len(shards); len(sh.segs) == 0 || sh.segs[0].lo != lo {
			return fmt.Errorf("shard %d does not start at the cut %d", s, lo)
		}
		for _, seg := range sh.segs {
			blk := blocks[seg.ci]
			switch {
			case seg.lo != next || seg.hi <= seg.lo:
				return fmt.Errorf("shard %d segment [%d, %d) after pattern %d", s, seg.lo, seg.hi, next)
			case seg.lo < blk.lo || seg.hi > blk.hi:
				return fmt.Errorf("segment [%d, %d) leaves block [%d, %d)", seg.lo, seg.hi, blk.lo, blk.hi)
			case seg.plo%4 != 0 || seg.n4 != roundUp(seg.hi-seg.lo, 4):
				return fmt.Errorf("segment [%d, %d) at %d owns %d entries", seg.lo, seg.hi, seg.plo, seg.n4)
			case seg.lo == blk.lo && seg.plo%clvBlock != 0:
				return fmt.Errorf("block %d starts at %d", seg.ci, seg.plo)
			case seg.plo+seg.n4 > npad:
				return fmt.Errorf("segment at %d+%d past npad %d", seg.plo, seg.n4, npad)
			}
			for i := seg.plo; i < seg.plo+seg.n4; i++ {
				if owned[i] {
					return fmt.Errorf("padded entry %d owned twice", i)
				}
				owned[i] = true
			}
			next = seg.hi
		}
		if hi := (s + 1) * npat / len(shards); next != hi {
			return fmt.Errorf("shard %d ends at %d, cut at %d", s, next, hi)
		}
	}
	return nil
}

// layoutFixture is npat random patterns over five taxa (ambiguity codes
// included) with weights 1–3 and rates cycling through classes, and a
// random tree over them.
func layoutFixture(rng *rand.Rand, npat int, classes []float64) (*seq.Patterns, *tree.Tree) {
	const taxa = 5
	p := &seq.Patterns{Codes: make([][]seq.Code, taxa)}
	for i := range p.Codes {
		p.Codes[i] = make([]seq.Code, npat)
		for j := range p.Codes[i] {
			p.Codes[i][j] = seq.Code(1 << rng.Intn(4))
			if rng.Intn(10) == 0 {
				p.Codes[i][j] = seq.Code(1 + rng.Intn(15))
			}
		}
	}
	for j := 0; j < npat; j++ {
		p.Weights = append(p.Weights, float64(1+rng.Intn(3)))
		p.Rates = append(p.Rates, classes[j%len(classes)])
	}
	tr, err := tree.RandomTree(taxaNames(taxa), rng, 0.15)
	if err != nil {
		panic(err)
	}
	return p, tr
}

// checkPadding verifies that padding entries of the tips and weights are
// zero and that origOfPad maps the padded axis onto the real patterns
// one to one.
func checkPadding(e *CachedEngine) error {
	seen := make([]bool, e.npat)
	for i, o := range e.origOfPad {
		if o >= 0 {
			if seen[o] {
				return fmt.Errorf("pattern %d at two padded entries", o)
			}
			seen[o] = true
			continue
		}
		if e.weights[i] != 0 {
			return fmt.Errorf("padding entry %d weighs %g", i, e.weights[i])
		}
		for taxon, tip := range e.tips {
			for s := 0; s < 4; s++ {
				if tip.f64[s*e.npad+i] != 0 {
					return fmt.Errorf("taxon %d lane %d padding entry %d is %g", taxon, s, i, tip.f64[s*e.npad+i])
				}
			}
		}
	}
	for o, ok := range seen {
		if !ok {
			return fmt.Errorf("pattern %d has no padded entry", o)
		}
	}
	return nil
}

// sameEngineBits requires bit-identical lnL, derivatives at the first
// edge (a fold and a later iterate) and site log-likelihoods from the
// vector and the scalar engine.
func sameEngineBits(t *testing.T, name string, vec, sca *CachedEngine, tr *tree.Tree) {
	t.Helper()
	lv, err := vec.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := sca.LogLikelihood(tr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(lv) != math.Float64bits(ls) {
		t.Errorf("%s: lnL vector %.17g, scalar %.17g", name, lv, ls)
	}
	ed, _ := tr.FirstEdge()
	for _, z := range []float64{ed.Length(), 0.7} {
		v1, v2 := vec.edgeGradient(vec.partial(ed.A, ed.B), vec.partial(ed.B, ed.A), z)
		s1, s2 := sca.edgeGradient(sca.partial(ed.A, ed.B), sca.partial(ed.B, ed.A), z)
		sameBits(t, name+" fold", z, v1, v2, s1, s2)
		v1, v2 = vec.specGradient(kSpecEval, 3*z)
		s1, s2 = sca.specGradient(kSpecEval, 3*z)
		sameBits(t, name+" eval", 3*z, v1, v2, s1, s2)
	}
	sv, err := vec.SiteLogLikelihoods(tr)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sca.SiteLogLikelihoods(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss {
		if math.Float64bits(sv[i]) != math.Float64bits(ss[i]) {
			t.Fatalf("%s: site %d lnL vector %.17g, scalar %.17g", name, i, sv[i], ss[i])
		}
	}
}

// TestShardPoolProtocol pins the pool's dispatch protocol: thousands of
// dispatches alternating kCombine2, kEdgeLnL, kFoldGrad and kSpecEval
// must give the lnL, d1/d2, fold-lane and CLV bits of a threads=1
// engine at threads 2, 3 and 8 — back to back, with the workers
// spinning; after pauses that park every worker; and under GOMAXPROCS 1,
// where the caller must take every part itself. Thread-count churn and
// Close must then leave no pool goroutine behind.
func TestShardPoolProtocol(t *testing.T) {
	base := runtime.NumGoroutine()
	m, p, tr := threadFixture(t, 29, 12, 5000)
	if p.NumPatterns() < 3000 {
		t.Fatalf("fixture: %d patterns, want >= 3000", p.NumPatterns())
	}
	const steps = 800
	ref := newProtocolProbe(t, m, p, tr, 1)
	want := make([]probeResult, steps)
	for i := range want {
		want[i] = ref.step(i, nil)
	}
	ref.e.Close()

	check := func(name string, threads, from, n int, pause func(*CachedEngine)) {
		t.Helper()
		pr := newProtocolProbe(t, m, p, tr, threads)
		defer pr.e.Close()
		if pr.e.pool == nil {
			t.Fatalf("%s threads=%d: no pool over %d padded patterns", name, threads, pr.e.npad)
		}
		before := pr.e.Stats().ShardDispatches
		for i := from; i < from+n; i++ {
			if got := pr.step(i, pause); got != want[i] {
				t.Fatalf("%s threads=%d step %d: got %+v, serial %+v", name, threads, i, got, want[i])
			}
		}
		if d := pr.e.Stats().ShardDispatches - before; d < uint64(4*n) {
			t.Fatalf("%s threads=%d: %d pool dispatches for %d steps", name, threads, d, n)
		}
	}
	for _, threads := range []int{2, 3, 8} {
		check("back to back", threads, 0, steps, nil)
		check("parked", threads, 0, 12, waitParked(t))
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			check("GOMAXPROCS=1", threads, steps/2, steps/2, nil)
		}()
	}

	eng, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 2, 1, 8} {
		eng.SetThreads(n)
		if _, err := eng.LogLikelihood(tr); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the engines", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// protocolProbe drives one engine through a fixed sequence of kernels.
type protocolProbe struct {
	e     *CachedEngine
	edges []tree.Edge
	dst   clvRef
}

// probeResult is everything one step computes: the reductions' bits and
// digests of the combined CLV and of the folded lanes.
type probeResult struct {
	lnL, d1, d2, e1, e2 uint64
	clv, lanes          uint64
}

func newProtocolProbe(t *testing.T, m model.Model, p *seq.Patterns, tr *tree.Tree, threads int) *protocolProbe {
	t.Helper()
	e, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetThreads(threads)
	tr = tr.Clone()
	if _, err := e.LogLikelihood(tr); err != nil {
		t.Fatal(err)
	}
	return &protocolProbe{e: e, edges: tr.Edges(), dst: e.cache.allocCLV()}
}

// step runs four kernels on edge i's partials at a length drawn from i,
// calling pause (when set) before each.
func (pr *protocolProbe) step(i int, pause func(*CachedEngine)) probeResult {
	e, ed := pr.e, pr.edges[i%len(pr.edges)]
	z := 0.01 + 0.37*float64(i%11)/11
	a, b := e.partial(ed.A, ed.B), e.partial(ed.B, ed.A)
	wait := func() {
		if pause != nil {
			pause(e)
		}
	}
	var r probeResult
	wait()
	e.combine2Into(pr.dst, a, b, z, 1.7*z)
	wait()
	r.lnL = math.Float64bits(e.edgeLogLikelihood(pr.dst, b, z))
	wait()
	d1, d2 := e.edgeGradient(pr.dst, a, 2*z)
	wait()
	e1, e2 := e.specGradient(kSpecEval, 0.5*z)
	r.d1, r.d2 = math.Float64bits(d1), math.Float64bits(d2)
	r.e1, r.e2 = math.Float64bits(e1), math.Float64bits(e2)
	r.clv, r.lanes = digest(pr.dst.f64), digest(e.spec)
	for _, sc := range pr.dst.sc {
		r.clv = r.clv*31 + uint64(sc)
	}
	return r
}

// digest folds a vector's bits into one word (FNV-1a over the words).
func digest(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h = (h ^ math.Float64bits(x)) * 1099511628211
	}
	return h
}

// waitParked returns a pause that returns once every worker of the
// engine's pool is parked, so the next dispatch must wake them.
func waitParked(t *testing.T) func(*CachedEngine) {
	return func(e *CachedEngine) {
		deadline := time.Now().Add(5 * time.Second)
		for i := range e.pool.ws {
			for !e.pool.ws[i].parked.Load() {
				if time.Now().After(deadline) {
					t.Fatalf("worker %d never parked", i)
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
}
