package likelihood

import (
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// ReferenceEngine is the deliberately simple Engine used as the trusted
// side of differential testing (internal/likelihood/difftest): direct
// post-order recomputation of every conditional likelihood vector on
// every call — no CLV cache, no SIMD kernels, no thread pool, no arena.
// Every CLV is a fresh array-of-structs allocation and every evaluation
// walks the whole tree, so it is slow on purpose: the implementation
// stays short enough to audit by eye, which is the property that makes
// cross-validating the optimized backends against it meaningful.
//
// It mirrors the cached engine's *algorithmic* choices exactly where
// they are observable — children combined in node-ID order, the same
// smoothing traversal and anchor rule, the shared newtonStep damping
// policy, the same rescaling thresholds — but not its floating-point
// summation order, so agreement is to the difftest tolerance, not bit
// identity.
//
// ReferenceEngine implements no optional capability: it has no threads
// to set, no cache to invalidate, and keeps no stats.
type ReferenceEngine struct {
	mdl    model.Model
	pat    *seq.Patterns
	freqs  seq.BaseFreqs
	decomp *model.Decomposition

	npat       int
	classRates []float64 // distinct per-pattern rates
	classOf    []int     // pattern -> rate class index
	tips       [][][4]float64
	zeroSc     []int32

	// Scratch transition matrices, one per rate class; pmB holds the
	// second edge's matrices during a two-sided junction combine. foldM
	// is diag(π)·C_k per decomposition term (foldMatrices).
	pm, pmB, foldM []model.PMatrix
}

// refCLV is one conditional likelihood vector in the reference layout:
// array-of-structs over the original (unpermuted) pattern order.
type refCLV struct {
	v  [][4]float64
	sc []int32
}

// NewReference builds a reference engine over the given model and
// compressed patterns.
func NewReference(m model.Model, p *seq.Patterns) (*ReferenceEngine, error) {
	if err := checkPatterns(p); err != nil {
		return nil, err
	}
	e := &ReferenceEngine{
		mdl:    m,
		pat:    p,
		freqs:  m.Freqs(),
		decomp: m.Decomposition(),
		npat:   p.NumPatterns(),
	}
	classIdx := make(map[float64]int)
	e.classOf = make([]int, e.npat)
	for i, r := range p.Rates {
		ci, ok := classIdx[r]
		if !ok {
			ci = len(e.classRates)
			classIdx[r] = ci
			e.classRates = append(e.classRates, r)
		}
		e.classOf[i] = ci
	}
	nc := len(e.classRates)
	e.pm = make([]model.PMatrix, nc)
	e.pmB = make([]model.PMatrix, nc)
	e.foldM = foldMatrices(e.decomp, (*[4]float64)(&e.freqs))

	e.tips = make([][][4]float64, p.NumSeqs())
	for taxon := 0; taxon < p.NumSeqs(); taxon++ {
		v := make([][4]float64, e.npat)
		for s := 0; s < e.npat; s++ {
			c := p.Codes[taxon][s]
			for b := 0; b < 4; b++ {
				if c&(1<<uint(b)) != 0 {
					v[s][b] = 1
				}
			}
		}
		e.tips[taxon] = v
	}
	e.zeroSc = make([]int32, e.npat)
	return e, nil
}

// Model returns the engine's substitution model.
func (e *ReferenceEngine) Model() model.Model { return e.mdl }

// Patterns returns the engine's data set.
func (e *ReferenceEngine) Patterns() *seq.Patterns { return e.pat }

func (e *ReferenceEngine) fillPMInto(dst []model.PMatrix, z float64) {
	for ci, r := range e.classRates {
		e.decomp.Probs(z, r, &dst[ci])
	}
}

// tip returns the (shared, never-written) tip CLV of a taxon.
func (e *ReferenceEngine) tip(taxon int) refCLV {
	return refCLV{v: e.tips[taxon], sc: e.zeroSc}
}

// rescale applies the per-pattern underflow guard to a freshly filled
// CLV: when a pattern's maximum conditional likelihood falls below the
// threshold (and is still positive — padding and impossible
// states stay zero), every component is scaled up and the event counted.
func (e *ReferenceEngine) rescale(out refCLV) {
	for p := 0; p < e.npat; p++ {
		m := out.v[p][0]
		for i := 1; i < 4; i++ {
			if out.v[p][i] > m {
				m = out.v[p][i]
			}
		}
		if m > 0 && m < scaleThreshold {
			for i := 0; i < 4; i++ {
				out.v[p][i] *= scaleFactor
			}
			out.sc[p]++
		}
	}
}

// partial recomputes the conditional likelihood vector of the subtree at
// n seen from parent — Felsenstein pruning by direct recursion, nothing
// memoized. Children are combined in node-ID order, matching the cached
// engine's (observable) combine order.
func (e *ReferenceEngine) partial(n, parent *tree.Node) refCLV {
	if n.Leaf() {
		return e.tip(n.Taxon)
	}
	out := refCLV{v: make([][4]float64, e.npat), sc: make([]int32, e.npat)}
	for ki, c := range childrenByID(n, parent) {
		cc := e.partial(c, n)
		e.fillPMInto(e.pm, clampLen(n.LenTo(c)))
		for p := 0; p < e.npat; p++ {
			m := &e.pm[e.classOf[p]]
			cv := &cc.v[p]
			for i := 0; i < 4; i++ {
				s := float64(m[i][0]*cv[0]) + float64(m[i][1]*cv[1]) + float64(m[i][2]*cv[2]) + float64(m[i][3]*cv[3])
				if ki == 0 {
					out.v[p][i] = s
				} else {
					out.v[p][i] *= s
				}
			}
			if ki == 0 {
				out.sc[p] = cc.sc[p]
			} else {
				out.sc[p] += cc.sc[p]
			}
		}
	}
	e.rescale(out)
	return out
}

// combine2 builds the junction CLV (P(za)·a) ⊙ (P(zb)·b) used by
// insertion scoring, with rescaling.
func (e *ReferenceEngine) combine2(a, b refCLV, za, zb float64) refCLV {
	e.fillPMInto(e.pm, clampLen(za))
	e.fillPMInto(e.pmB, clampLen(zb))
	out := refCLV{v: make([][4]float64, e.npat), sc: make([]int32, e.npat)}
	for p := 0; p < e.npat; p++ {
		ma := &e.pm[e.classOf[p]]
		mb := &e.pmB[e.classOf[p]]
		av, bv := &a.v[p], &b.v[p]
		for i := 0; i < 4; i++ {
			sa := float64(ma[i][0]*av[0]) + float64(ma[i][1]*av[1]) + float64(ma[i][2]*av[2]) + float64(ma[i][3]*av[3])
			sb := float64(mb[i][0]*bv[0]) + float64(mb[i][1]*bv[1]) + float64(mb[i][2]*bv[2]) + float64(mb[i][3]*bv[3])
			out.v[p][i] = sa * sb
		}
		out.sc[p] = a.sc[p] + b.sc[p]
	}
	e.rescale(out)
	return out
}

// edgeLnL combines the two directed partials of an edge at branch length
// z into the total log-likelihood.
func (e *ReferenceEngine) edgeLnL(a, b refCLV, z float64) float64 {
	e.fillPMInto(e.pm, clampLen(z))
	total := 0.0
	for p := 0; p < e.npat; p++ {
		m := &e.pm[e.classOf[p]]
		av, bv := &a.v[p], &b.v[p]
		lkl := 0.0
		for i := 0; i < 4; i++ {
			lkl += float64(e.freqs[i] * av[i] * (float64(m[i][0]*bv[0]) + float64(m[i][1]*bv[1]) + float64(m[i][2]*bv[2]) + float64(m[i][3]*bv[3])))
		}
		if lkl <= 0 {
			lkl = math.SmallestNonzeroFloat64
		}
		total += float64(e.pat.Weights[p] * (math.Log(lkl) - float64(float64(a.sc[p]+b.sc[p])*logScale)))
	}
	return total
}

// fold computes the per-pattern constants of an edge's likelihood curve
// l_p(z) = T[p] + Σ_{k≥1} S_k[p]·(e^{λ_k r z} − 1) from its two directed
// partials — T[p] = Σ_i π_i·a_p[i]·b_p[i] in component 0, the spectral
// sums S_k[p] = Σ_ij π_i·a_p[i]·C_k[i][j]·b_p[j] in components k ≥ 1 —
// with the cached engine's per-pattern expressions (segFold).
func (e *ReferenceEngine) fold(a, b refCLV) [][4]float64 {
	f := &e.freqs
	out := make([][4]float64, e.npat)
	for p := range out {
		av, bv := &a.v[p], &b.v[p]
		out[p][0] = float64(f[0]*av[0]*bv[0]) + float64(f[1]*av[1]*bv[1]) + float64(f[2]*av[2]*bv[2]) + float64(f[3]*av[3]*bv[3])
		for k := 1; k < len(e.foldM); k++ {
			m := &e.foldM[k]
			s := 0.0
			for i := 0; i < 4; i++ {
				s += float64(av[i] * (float64(m[i][0]*bv[0]) + float64(m[i][1]*bv[1]) + float64(m[i][2]*bv[2]) + float64(m[i][3]*bv[3])))
			}
			out[p][k] = s
		}
	}
	return out
}

// foldedDeriv computes d/dz and d²/dz² of the edge log-likelihood at z
// from the folded sums (the cached engine's segSpecEval; scale counts
// and logs cancel in the ratios).
func (e *ReferenceEngine) foldedDeriv(spec [][4]float64, z float64) (float64, float64) {
	z = clampLen(z)
	coef := make([]specCoef, len(e.classRates))
	for ci, r := range e.classRates {
		coef[ci].fill(e.decomp.Lambda, z, r)
	}
	var acc gradAcc
	for p, s := range spec {
		c := &coef[e.classOf[p]]
		l, dl, ddl := s[0], 0.0, 0.0
		for k := 1; k < len(e.foldM); k++ {
			l += float64(s[k] * c.x[k][0])
			dl += float64(s[k] * c.g[k][0])
			ddl += float64(s[k] * c.h[k][0])
		}
		acc = acc.add(e.pat.Weights[p], l, dl, ddl)
	}
	return acc.d1, acc.d2
}

// newtonEdge maximizes the edge log-likelihood over the branch length
// from z0 under the shared newtonStep policy: one fold, then iterates on
// derivatives alone, returning the last evaluated iterate, like the
// cached engine.
func (e *ReferenceEngine) newtonEdge(a, b refCLV, z0 float64) float64 {
	spec := e.fold(a, b)
	z := clampLen(z0)
	for iter := 0; iter < newtonMaxIter; iter++ {
		d1, d2 := e.foldedDeriv(spec, z)
		next, stop := newtonStep(z, d1, d2)
		if stop {
			break
		}
		z = next
	}
	return z
}

// LogLikelihood evaluates the tree's log-likelihood by recomputing every
// conditional likelihood vector from scratch.
func (e *ReferenceEngine) LogLikelihood(t *tree.Tree) (float64, error) {
	if err := checkTreeData(t, e.pat); err != nil {
		return 0, err
	}
	ed, ok := t.FirstEdge()
	if !ok {
		return 0, fmt.Errorf("likelihood: tree has no edges")
	}
	a := e.partial(ed.A, ed.B)
	b := e.partial(ed.B, ed.A)
	return e.edgeLnL(a, b, ed.Length()), nil
}

// SiteLogLikelihoods returns the per-pattern log-likelihoods (weights
// not applied) in the original pattern order. The reference engine never
// permutes patterns, so the natural order is the original order; the
// returned slice is freshly allocated each call.
func (e *ReferenceEngine) SiteLogLikelihoods(t *tree.Tree) ([]float64, error) {
	if err := checkTreeData(t, e.pat); err != nil {
		return nil, err
	}
	ed, ok := t.FirstEdge()
	if !ok {
		return nil, fmt.Errorf("likelihood: tree has no edges")
	}
	a := e.partial(ed.A, ed.B)
	b := e.partial(ed.B, ed.A)
	e.fillPMInto(e.pm, clampLen(ed.Length()))
	out := make([]float64, e.npat)
	for p := 0; p < e.npat; p++ {
		m := &e.pm[e.classOf[p]]
		av, bv := &a.v[p], &b.v[p]
		lkl := 0.0
		for i := 0; i < 4; i++ {
			lkl += float64(e.freqs[i] * av[i] * (float64(m[i][0]*bv[0]) + float64(m[i][1]*bv[1]) + float64(m[i][2]*bv[2]) + float64(m[i][3]*bv[3])))
		}
		if lkl <= 0 {
			lkl = math.SmallestNonzeroFloat64
		}
		out[p] = math.Log(lkl) - float64(float64(a.sc[p]+b.sc[p])*logScale)
	}
	return out, nil
}

// OptimizeBranches optimizes branch lengths in place and returns the
// final log-likelihood, walking the same anchor/traversal/pass schedule
// as the cached engine (newton.go) so the two backends visit edges in
// the same order.
func (e *ReferenceEngine) OptimizeBranches(t *tree.Tree, opt OptOptions) (float64, error) {
	opt = opt.withDefaults()
	if err := checkTreeData(t, e.pat); err != nil {
		return 0, err
	}
	var allowed map[[2]int]bool
	if len(opt.Centers) > 0 {
		allowed = make(map[[2]int]bool)
		for _, c := range opt.Centers {
			if c != nil {
				edgeSetAround(c, opt.Radius, allowed)
			}
		}
	}
	anchor := t.AnyNode()
	if anchor.Leaf() {
		if anchor.Degree() > 0 && !anchor.Nbr[0].Leaf() {
			anchor = anchor.Nbr[0]
		}
	}
	prev := math.Inf(-1)
	last := prev
	for pass := 0; pass < opt.Passes; pass++ {
		e.smoothPass(anchor, allowed)
		lnL, err := e.LogLikelihood(t)
		if err != nil {
			return 0, err
		}
		last = lnL
		if lnL-prev < passTol {
			break
		}
		prev = lnL
	}
	return last, nil
}

// edgeSetAround adds the undirected edges within radius vertices of n to
// out.
func edgeSetAround(n *tree.Node, radius int, out map[[2]int]bool) {
	type item struct {
		node *tree.Node
		dist int
	}
	visited := map[int]bool{n.ID: true}
	queue := []item{{n, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.dist >= radius {
			continue
		}
		for _, m := range cur.node.Nbr {
			out[edgeKey(cur.node, m)] = true
			if !visited[m.ID] {
				visited[m.ID] = true
				queue = append(queue, item{m, cur.dist + 1})
			}
		}
	}
}

func edgeKey(a, b *tree.Node) [2]int {
	if a.ID < b.ID {
		return [2]int{a.ID, b.ID}
	}
	return [2]int{b.ID, a.ID}
}

// childrenByID returns u's neighbors other than p, sorted by node ID.
func childrenByID(u, p *tree.Node) []*tree.Node {
	out := make([]*tree.Node, 0, len(u.Nbr))
	for _, c := range u.Nbr {
		if c != p {
			out = append(out, c)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// smoothPass performs one depth-first smoothing pass from anchor,
// visiting children in node-ID order like the cached engine. Both
// directed partials are recomputed from scratch at every edge — the
// honest cost of having no cache.
func (e *ReferenceEngine) smoothPass(anchor *tree.Node, allowed map[[2]int]bool) {
	var visit func(u, p *tree.Node)
	visit = func(u, p *tree.Node) {
		if allowed == nil || allowed[edgeKey(p, u)] {
			a := e.partial(p, u) // rest of tree seen from u
			b := e.partial(u, p) // subtree at u
			z0 := u.LenTo(p)
			z := e.newtonEdge(a, b, z0)
			tree.SetLen(p, u, z)
		}
		for _, c := range childrenByID(u, p) {
			visit(c, u)
		}
	}
	for _, child := range childrenByID(anchor, nil) {
		visit(child, anchor)
	}
}

// OptimizeEdge optimizes a single edge's branch length in place and
// returns the resulting full-tree log-likelihood.
func (e *ReferenceEngine) OptimizeEdge(t *tree.Tree, ed tree.Edge) (float64, error) {
	if err := checkTreeData(t, e.pat); err != nil {
		return 0, err
	}
	if ed.A.NbrIndex(ed.B) < 0 {
		return 0, fmt.Errorf("likelihood: edge %d-%d: %w", ed.A.ID, ed.B.ID, ErrEdgeNotFound)
	}
	a := e.partial(ed.A, ed.B)
	b := e.partial(ed.B, ed.A)
	z := e.newtonEdge(a, b, ed.Length())
	tree.SetLen(ed.A, ed.B, z)
	return e.edgeLnL(a, b, z), nil
}

// refInsertScorer scores candidate insertions by recomputing the
// insertion edge's directed partials on every Score call.
type refInsertScorer struct {
	e     *ReferenceEngine
	t     *tree.Tree
	taxon int
}

// NewInsertScorer prepares scoring of candidate insertions of taxon into
// base. The taxon must be covered by the data set and absent from base.
func (e *ReferenceEngine) NewInsertScorer(base *tree.Tree, taxon int) (InsertScorer, error) {
	if err := checkTreeData(base, e.pat); err != nil {
		return nil, err
	}
	if taxon < 0 || taxon >= e.pat.NumSeqs() {
		return nil, fmt.Errorf("likelihood: insert taxon %d: %w", taxon, ErrTaxonOutsideData)
	}
	if base.LeafByTaxon(taxon) != nil {
		return nil, fmt.Errorf("likelihood: insert taxon %d: %w", taxon, ErrTaxonInTree)
	}
	return &refInsertScorer{e: e, t: base, taxon: taxon}, nil
}

// Score mirrors the cached scorer's schedule: the same starting
// geometry, the same three-branch Newton rotation, the same final
// junction-leaf evaluation.
func (s *refInsertScorer) Score(ed tree.Edge, passes int) (InsertScore, error) {
	a, b := ed.A, ed.B
	if a.NbrIndex(b) < 0 {
		return InsertScore{}, fmt.Errorf("likelihood: insertion edge %d-%d: %w", a.ID, b.ID, ErrEdgeNotFound)
	}
	if passes <= 0 {
		passes = 1
	}
	e := s.e
	half := ed.Length() / 2
	if half <= 0 {
		half = tree.DefaultBranchLength / 2
	}
	za, zb, zl := half, half, tree.DefaultBranchLength

	aref := e.partial(a, b)
	bref := e.partial(b, a)
	tip := e.tip(s.taxon)

	var j refCLV
	for pass := 0; pass < passes; pass++ {
		j = e.combine2(aref, bref, za, zb)
		zl = e.newtonEdge(j, tip, zl)

		rest := e.combine2(bref, tip, zb, zl)
		za = e.newtonEdge(aref, rest, za)

		rest = e.combine2(aref, tip, za, zl)
		zb = e.newtonEdge(bref, rest, zb)
	}
	j = e.combine2(aref, bref, za, zb)
	lnL := e.edgeLnL(j, tip, zl)
	return InsertScore{LnL: lnL, LenA: za, LenB: zb, LenLeaf: zl}, nil
}
