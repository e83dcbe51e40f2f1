// Package likelihood evaluates and optimizes the likelihood of unrooted
// phylogenetic trees under the models in internal/model, implementing the
// computational core of fastDNAml: Felsenstein's pruning algorithm over
// compressed site patterns, normalization (scaling) of conditional
// likelihoods to prevent floating point underflow on large trees (paper
// §2.1), and Newton-Raphson branch length optimization with analytic
// first and second derivatives (DNAml's makenewz).
//
// Evaluation is incremental: conditional likelihood vectors are memoized
// per directed edge (see cache.go), so repeated evaluations of the same
// or a locally-edited tree only recompute the vectors whose subtree or
// incident branch lengths changed. Patterns are permuted at construction
// into contiguous rate-class blocks so the inner loops hoist the
// transition-matrix lookup out of the per-pattern loop, and CLVs are
// stored structure-of-arrays — one contiguous lane per nucleotide state,
// rate-class blocks padded to a fixed multiple — so the hot kernels
// (kernels.go) run as straight-line, bounds-check-free loops over
// parallel arrays. CLVs are float64, the bit-identity reference at every
// thread count.
package likelihood

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Scaling constants: conditional likelihoods below scaleThreshold are
// multiplied by scaleFactor and the event is counted; the log-likelihood
// is corrected by count*logScale at the root.
const (
	scaleThreshold = 1e-100
	scaleFactor    = 1e100
)

var logScale = math.Log(scaleFactor)

// Branch length bounds and Newton iteration controls (fastDNAml's zmin,
// zmax and smoothing behaviour).
const (
	// MinBranchLength is the smallest branch length considered.
	MinBranchLength = 1e-8
	// MaxBranchLength is the largest branch length considered.
	MaxBranchLength = 10.0
	// newtonMaxIter bounds the Newton iterations per branch per visit.
	// Convex-decreasing cases (e.g. identical sequences) descend by the
	// geometric fallback, so the cap must allow reaching MinBranchLength
	// from anywhere in the interval.
	newtonMaxIter = 24
	// newtonTol is the convergence tolerance on the branch length.
	newtonTol = 1e-7
)

// clvBlock is the pattern-count multiple each rate-class block is padded
// to in the SoA layout: every block's lanes start at an index divisible
// by clvBlock, so a vectorizing compiler (or a future SIMD kernel) sees
// aligned, whole-vector runs. 8 float64s is one 64-byte cache line.
const clvBlock = 8

// classBlock is a contiguous run of (permuted) patterns sharing one rate
// class, so kernels look the transition matrix up once per block. plo is
// the block's starting index on the padded pattern axis; the block
// occupies padded indices [plo, plo+(hi-lo)) with the remainder up to
// the next multiple of clvBlock as zero-filled padding.
type classBlock struct {
	ci     int // rate class index
	lo, hi int // permuted pattern index range [lo, hi)
	plo    int // padded start index (multiple of clvBlock)
}

// clvRef is a view of one conditional likelihood vector in the SoA
// layout: f64 holds 4*npad entries (four state lanes of npad each), sc
// the per-padded-pattern scale count vector.
type clvRef struct {
	f64 []float64
	sc  []int32
}

// CachedEngine is the production Engine implementation: Felsenstein
// pruning over a per-directed-edge CLV cache with SoA storage, sharded
// multi-core kernels and optional AVX2 acceleration. It is registered in
// the engine registry as "cached" (the default backend). A CachedEngine
// is not safe for concurrent use; each worker owns one.
type CachedEngine struct {
	mdl model.Model
	pat *seq.Patterns

	freqs  seq.BaseFreqs
	decomp *model.Decomposition

	// rate classes: distinct per-pattern rates, patterns permuted into
	// contiguous class blocks. perm maps internal (permuted) pattern
	// index to the original index in pat; weights/tips are permuted and
	// live on the padded pattern axis.
	classRates []float64
	blocks     []classBlock
	perm       []int
	npat       int // real (permuted) pattern count
	npad       int // padded pattern count (blocks rounded up to clvBlock)

	// Padded-axis data: weights holds the pattern weights at padded
	// positions (padding entries 0); origOfPad maps a padded index back
	// to the original pattern index in pat (-1 for padding).
	weights   []float64
	origOfPad []int

	// tip conditional likelihoods per taxon in SoA lanes over the padded
	// axis: 1 when the observed code is compatible with the base, 0 in
	// padding. zeroScale is the shared all-zero scale vector tips report
	// (tips never underflow).
	tips      [][]float64
	zeroScale []int32

	// scratch transition matrices, one per rate class. pmatB holds the
	// second child's matrices during the fused two-child combine.
	pmat, pmatB []model.PMatrix

	// Spectral fold of the edge being solved (kernels.go): foldM holds
	// diag(π)·C_k per decomposition term, spec the K×npad per-pattern
	// spectral sums segFold leaves for segSpecEval, specC the per-class
	// eval coefficients of the current iterate.
	foldM []model.PMatrix
	spec  []float64
	specC []specCoef

	// bc2 is the pre-broadcast coefficient table per rate class consumed
	// by the AVX2 fused combine (kernels_amd64.s): rows 0-15 Ma, 16-31 Mb
	// (each coefficient repeated across a 4-wide row), row 32 the rescale
	// threshold. Allocated only on AVX2 hardware; nil selects the scalar
	// kernel.
	bc2 [][33][4]float64

	// cache memoizes directed-edge CLVs; stats counts its behaviour.
	cache clvCache
	stats EngineStats

	// ops counts pattern-level inner-loop operations, the work-unit
	// measure consumed by the cluster simulator's cost model. Cache hits
	// add nothing: only recomputed vectors count.
	ops uint64

	// evalDepth guards EvalTime accounting against nested public entry
	// points (OptimizeBranches calls LogLikelihood per pass); only the
	// outermost call contributes wall-clock time.
	evalDepth int

	// Sharded kernels (shard.go): the fixed shard layout (a pure function
	// of the data), the persistent goroutine pool (nil when threads <= 1),
	// the engine-held kernel arguments, and the per-shard reduction
	// partials summed in shard index order.
	threads           int
	shards            []shard
	pool              *shardPool
	kern              kernArgs
	shLnL, shD1, shD2 []float64

	// Arena scratch reused across evaluations: the per-pattern site
	// vector SiteLogLikelihoods fills (siteBuf) and the two junction
	// vectors insertion scoring needs (insJ/insRest). Both are lazily
	// sized once.
	siteBuf       []float64
	insJ, insRest clvRef

	// Smoothing scratch: the per-edge buffer holding the sweep's visit
	// order (newton.go) and the per-node-ID marks of a restricted
	// optimization's region. Both stabilize at the tree's size, keeping
	// smoothing passes allocation-free.
	gradBuf []BranchGrad
	near    []bool
}

// beginEval starts the stats clock for a public evaluation entry point;
// endEval stops it. Nested entry points are free: two time.Now calls per
// outermost invocation, nothing in the kernels, and no closure (use as
// `defer e.endEval(e.beginEval())`, which Go open-codes without
// allocating).
func (e *CachedEngine) beginEval() time.Time {
	e.evalDepth++
	if e.evalDepth > 1 {
		return time.Time{}
	}
	return time.Now()
}

func (e *CachedEngine) endEval(start time.Time) {
	e.evalDepth--
	if e.evalDepth == 0 {
		e.stats.EvalTime += time.Since(start)
	}
}

// New builds an engine for the given model and compressed patterns.
func New(m model.Model, p *seq.Patterns) (*CachedEngine, error) {
	if p.NumPatterns() == 0 {
		return nil, fmt.Errorf("likelihood: empty pattern set")
	}
	e := &CachedEngine{
		mdl:    m,
		pat:    p,
		freqs:  m.Freqs(),
		decomp: m.Decomposition(),
		npat:   p.NumPatterns(),
	}
	// Group patterns into rate classes.
	classIdx := make(map[float64]int)
	classOf := make([]int, e.npat)
	for i, r := range p.Rates {
		ci, ok := classIdx[r]
		if !ok {
			ci = len(e.classRates)
			classIdx[r] = ci
			e.classRates = append(e.classRates, r)
		}
		classOf[i] = ci
	}
	e.pmat = make([]model.PMatrix, len(e.classRates))
	e.pmatB = make([]model.PMatrix, len(e.classRates))
	e.foldM = foldMatrices(e.decomp, (*[4]float64)(&e.freqs))
	e.specC = make([]specCoef, len(e.classRates))
	if useAVX2 {
		e.bc2 = make([][33][4]float64, len(e.classRates))
		for ci := range e.bc2 {
			e.bc2[ci][32] = [4]float64{scaleThreshold, scaleThreshold, scaleThreshold, scaleThreshold}
		}
	}

	// Permute patterns so each rate class is one contiguous block; the
	// stable sort keeps the original relative order within a class.
	e.perm = make([]int, e.npat)
	for i := range e.perm {
		e.perm[i] = i
	}
	sort.SliceStable(e.perm, func(i, j int) bool {
		return classOf[e.perm[i]] < classOf[e.perm[j]]
	})
	lo := 0
	for s := 1; s <= e.npat; s++ {
		if s == e.npat || classOf[e.perm[s]] != classOf[e.perm[lo]] {
			e.blocks = append(e.blocks, classBlock{ci: classOf[e.perm[lo]], lo: lo, hi: s})
			lo = s
		}
	}
	// Assign padded block starts: each block's lane segment begins at a
	// multiple of clvBlock, with zero-filled padding to the next one.
	pad := 0
	for i := range e.blocks {
		e.blocks[i].plo = pad
		n := e.blocks[i].hi - e.blocks[i].lo
		pad += (n + clvBlock - 1) / clvBlock * clvBlock
	}
	e.npad = pad

	// Weights and the padded->original index map.
	e.weights = make([]float64, e.npad)
	e.origOfPad = make([]int, e.npad)
	for i := range e.origOfPad {
		e.origOfPad[i] = -1
	}
	for _, blk := range e.blocks {
		for s := blk.lo; s < blk.hi; s++ {
			i := blk.plo + (s - blk.lo)
			e.weights[i] = p.Weights[e.perm[s]]
			e.origOfPad[i] = e.perm[s]
		}
	}

	// Tip vectors: SoA lanes over the padded axis. Padding entries stay
	// exactly zero forever — combines propagate 0 and rescaling skips
	// non-positive maxima — so padded tails never produce scaling events
	// or NaNs.
	e.tips = make([][]float64, p.NumSeqs())
	for taxon := range e.tips {
		v := make([]float64, 4*e.npad)
		for _, blk := range e.blocks {
			for s := blk.lo; s < blk.hi; s++ {
				i := blk.plo + (s - blk.lo)
				c := p.Codes[taxon][e.perm[s]]
				for b := 0; b < 4; b++ {
					if c&(1<<uint(b)) != 0 {
						v[b*e.npad+i] = 1
					}
				}
			}
		}
		e.tips[taxon] = v
	}
	e.zeroScale = make([]int32, e.npad)
	e.spec = make([]float64, len(e.foldM)*e.npad)

	// Shard layout and reduction partials (shard.go). The layout depends
	// only on the data — the same real-pattern cut points as ever, so
	// reduction grouping (and therefore every float64 bit) is unchanged
	// from the interleaved engine — and every thread count reduces in
	// the same order.
	e.shards = buildShards(e.blocks, e.npat)
	e.shLnL = make([]float64, len(e.shards))
	e.shD1 = make([]float64, len(e.shards))
	e.shD2 = make([]float64, len(e.shards))
	e.threads = 1
	e.cache.npad = e.npad
	return e, nil
}

// Model returns the engine's substitution model.
func (e *CachedEngine) Model() model.Model { return e.mdl }

// Patterns returns the engine's data set.
func (e *CachedEngine) Patterns() *seq.Patterns { return e.pat }

// Precision reports Float64, the only CLV storage format; it remains for
// the benchmark module's PrecisionReporter check (ROADMAP item 6).
func (e *CachedEngine) Precision() Precision { return Float64 }

// Ops returns the cumulative pattern-level work counter.
func (e *CachedEngine) Ops() uint64 { return e.ops }

// ResetOps zeroes the work counter and returns the previous value.
func (e *CachedEngine) ResetOps() uint64 {
	v := e.ops
	e.ops = 0
	return v
}

// ensureBuffers sizes the cache's per-node index for node IDs < n.
func (e *CachedEngine) ensureBuffers(n int) {
	e.cache.grow(n)
}

// tipRef returns the tip CLV view for a taxon.
func (e *CachedEngine) tipRef(taxon int) clvRef {
	return clvRef{f64: e.tips[taxon], sc: e.zeroScale}
}

// fillProbs computes the per-class transition matrices for branch length
// z.
func (e *CachedEngine) fillProbs(z float64) {
	e.fillProbsInto(e.pmat, z)
}

// fillProbsB fills the second matrix set used by the two-child fused
// combine (combine2Into needs both edges' matrices live at once).
func (e *CachedEngine) fillProbsB(z float64) {
	e.fillProbsInto(e.pmatB, z)
}

func (e *CachedEngine) fillProbsInto(dst []model.PMatrix, z float64) {
	for ci, r := range e.classRates {
		e.decomp.Probs(z, r, &dst[ci])
	}
}

// clampLen bounds a branch length into the legal interval.
func clampLen(z float64) float64 {
	if z < MinBranchLength {
		return MinBranchLength
	}
	if z > MaxBranchLength {
		return MaxBranchLength
	}
	return z
}

// combineInto multiplies (or, when first, assigns) P(z)·src into dst for
// every pattern, accumulating scale counts. One call is one child-edge
// combine of Felsenstein pruning: 16 pattern-level ops per pattern. With
// resc set — the last combine of a pruning step — underflow rescaling is
// fused into the same pass: the final values are checked and scaled in
// registers before the store, saving a whole read-modify-write sweep of
// dst per CLV fill (bit-identical to a separate rescale pass).
func (e *CachedEngine) combineInto(dst, src clvRef, z float64, first, resc bool) {
	e.fillProbs(clampLen(z))
	e.ops += uint64(e.npat) * 16
	k := &e.kern
	switch {
	case first && resc:
		k.op = kCombineFirstResc
	case first:
		k.op = kCombineFirst
	case resc:
		k.op = kCombineMulResc
	default:
		k.op = kCombineMul
	}
	k.dst, k.src = dst, src
	e.runShards()
}

// combine2Into performs a complete binary pruning step — the common case
// of an inner node with exactly two children — in a single kernel pass:
// dst = (P(za)·a) ⊙ (P(zb)·b) with rescaling fused, never materializing
// the first child's product. Bit-identical to the first/mul sequence.
func (e *CachedEngine) combine2Into(dst, a, b clvRef, za, zb float64) {
	e.fillProbs(clampLen(za))
	e.fillProbsB(clampLen(zb))
	for ci := range e.bc2 {
		t := &e.bc2[ci]
		pa, pb := &e.pmat[ci], &e.pmatB[ci]
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				va, vb := pa[j][k], pb[j][k]
				t[j*4+k] = [4]float64{va, va, va, va}
				t[16+j*4+k] = [4]float64{vb, vb, vb, vb}
			}
		}
	}
	e.ops += uint64(e.npat) * 32
	k := &e.kern
	k.op = kCombine2
	k.dst, k.src, k.src2 = dst, a, b
	e.runShards()
}

// partial returns the conditional likelihood vector of the subtree at n
// seen from parent (the "down" view of directed edge parent->n) and its
// cache generation. Results come from the CLV cache when the subtree is
// unchanged; only stale vectors are recombined. The returned buffers are
// owned by the cache and valid until the next fill of the same directed
// edge.
func (e *CachedEngine) partial(n, parent *tree.Node) (clvRef, uint64) {
	if n.Leaf() {
		return e.tipRef(n.Taxon), tipGen
	}
	ent := e.cache.entryFor(n, parent)
	valid := ent.filled && ent.nodeRev == n.Rev()

	// Recurse into the children first (pure pointer walk on the hit
	// path) and compare against the entry's recorded children. Children
	// are combined in node-ID order, not Nbr order: topology edits can
	// permute Nbr lists, and keying the floating-point combine order to
	// node identity keeps results bit-identical across edit histories
	// (the serial-equals-parallel guarantee).
	tmp := ent.tmp[:0]
	for i, child := range n.Nbr {
		if child == parent {
			continue
		}
		cref, cgen := e.partial(child, n)
		tmp = append(tmp, kidRef{node: child, gen: cgen, ref: cref, z: n.Len[i]})
	}
	for i := 1; i < len(tmp); i++ {
		for j := i; j > 0 && tmp[j].node.ID < tmp[j-1].node.ID; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	ent.tmp = tmp
	if valid && len(tmp) == len(ent.kids) {
		for i := range tmp {
			if ent.kids[i].node != tmp[i].node || ent.kids[i].gen != tmp[i].gen {
				valid = false
				break
			}
		}
	} else {
		valid = false
	}
	if valid {
		e.stats.Hits++
		return ent.ref, ent.gen
	}
	e.stats.Misses++
	e.stats.Recomputed++

	if ent.ref.sc == nil {
		ent.ref = e.cache.allocCLV()
	}
	if len(tmp) == 2 {
		// Bifurcating inner node: one fused kernel pass for the whole fill.
		e.combine2Into(ent.ref, tmp[0].ref, tmp[1].ref, tmp[0].z, tmp[1].z)
	} else {
		for i := range tmp {
			e.combineInto(ent.ref, tmp[i].ref, tmp[i].z, i == 0, i == len(tmp)-1)
		}
	}

	ent.nodeRev = n.Rev()
	ent.kids = ent.kids[:0]
	for i := range tmp {
		// Retain only the identity fields; the vector slices would pin
		// child buffers for no benefit.
		ent.kids = append(ent.kids, kidRef{node: tmp[i].node, gen: tmp[i].gen})
	}
	ent.gen = e.cache.nextGen()
	ent.filled = true
	return ent.ref, ent.gen
}

// downPartial is the uncached-era name for partial, kept for in-package
// tests; it returns the (possibly cached) directed-edge CLV view.
func (e *CachedEngine) downPartial(n, parent *tree.Node) clvRef {
	ref, _ := e.partial(n, parent)
	return ref
}

// edgeLogLikelihood combines the two directed partials of edge (a,b) at
// branch length z into the total log-likelihood.
func (e *CachedEngine) edgeLogLikelihood(a, b clvRef, z float64) float64 {
	e.fillProbs(clampLen(z))
	e.ops += uint64(e.npat) * 20
	k := &e.kern
	k.op = kEdgeLnL
	k.a, k.b = a, b
	e.runShards()
	// Ordered reduction: per-shard partials summed in shard index order,
	// independent of which thread computed them.
	total := 0.0
	for s := range e.shards {
		total += e.shLnL[s]
	}
	return total
}

// LogLikelihood evaluates the tree's log-likelihood without changing any
// branch length. The tree must contain at least two leaves whose taxa are
// covered by the data set. Evaluation is incremental: only conditional
// likelihood vectors invalidated since the previous call are recomputed.
func (e *CachedEngine) LogLikelihood(t *tree.Tree) (float64, error) {
	defer e.endEval(e.beginEval())
	if err := e.checkTree(t); err != nil {
		return 0, err
	}
	e.ensureBuffers(t.MaxID())
	// Evaluate across an arbitrary edge.
	ed, ok := t.FirstEdge()
	if !ok {
		return 0, fmt.Errorf("likelihood: tree has no edges")
	}
	a, _ := e.partial(ed.A, ed.B)
	b, _ := e.partial(ed.B, ed.A)
	return e.edgeLogLikelihood(a, b, ed.Length()), nil
}

// SiteLogLikelihoods returns the per-pattern log-likelihoods of the tree
// (weights not applied) in the original pattern order of Patterns(), used
// by DNArates-style per-site estimation. The returned slice is owned by
// the engine and overwritten by the next call; callers that retain it
// across calls must copy.
func (e *CachedEngine) SiteLogLikelihoods(t *tree.Tree) ([]float64, error) {
	defer e.endEval(e.beginEval())
	if err := e.checkTree(t); err != nil {
		return nil, err
	}
	e.ensureBuffers(t.MaxID())
	ed, ok := t.FirstEdge()
	if !ok {
		return nil, fmt.Errorf("likelihood: tree has no edges")
	}
	a, _ := e.partial(ed.A, ed.B)
	b, _ := e.partial(ed.B, ed.A)
	e.fillProbs(clampLen(ed.Length()))
	if e.siteBuf == nil {
		e.siteBuf = make([]float64, e.npat)
	}
	k := &e.kern
	k.op = kSiteLnL
	k.a, k.b, k.out = a, b, e.siteBuf
	e.runShards()
	return e.siteBuf, nil
}

// checkTree verifies the tree is usable with this data set.
func (e *CachedEngine) checkTree(t *tree.Tree) error {
	return checkTreeData(t, e.pat)
}

// checkTreeData is the tree/data compatibility check shared by every
// in-tree engine, wrapping the typed sentinels so callers can classify.
func checkTreeData(t *tree.Tree, pat *seq.Patterns) error {
	if len(t.Taxa) != pat.NumSeqs() {
		return fmt.Errorf("likelihood: tree over %d taxa, data has %d sequences: %w",
			len(t.Taxa), pat.NumSeqs(), ErrTreeMismatch)
	}
	n := 0
	for _, node := range t.Nodes {
		if node == nil {
			continue
		}
		if node.Leaf() {
			if node.Taxon >= pat.NumSeqs() {
				return fmt.Errorf("likelihood: leaf taxon %d: %w", node.Taxon, ErrTaxonOutsideData)
			}
			n++
		}
	}
	if n < 2 {
		return fmt.Errorf("likelihood: tree has %d leaves, need at least 2: %w", n, ErrTreeMismatch)
	}
	return nil
}
