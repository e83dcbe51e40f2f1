package likelihood

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tree"
)

// Branch length optimization: DNAml's makenewz. The likelihood of an edge
// factorizes as L(z) = Σ_p w_p log Σ_ij π_i A_p[i] P_ij(z) B_p[j], where A
// is the conditional likelihood of one side and B of the other; P and its
// z-derivatives are closed-form (spectral decomposition), so Newton's
// method applies directly — on the derivatives alone, as in makenewz —
// with a geometric fallback where the curve is not concave and the
// [MinBranchLength, MaxBranchLength] bounds.
//
// The smoothing pass draws both directed partials of each visited edge
// from the CLV cache: the "rest of tree" vector at (p seen from u) is
// just the directed partial in the opposite direction, so no separate
// rest-buffer machinery is needed and untouched regions of the tree cost
// nothing to revisit.

// OptOptions control branch length optimization.
type OptOptions struct {
	// Passes is the maximum number of full smoothing passes over the
	// selected branches (fastDNAml's smoothings). Default 8.
	Passes int
	// Centers restricts optimization to the union of the
	// Radius-neighborhoods of these nodes (empty optimizes every branch).
	// This mirrors fastDNAml's scoring of a candidate by optimizing only
	// the branches near its edit before the full smoothing of the
	// round's best tree; rearrangement scoring lists both the regraft
	// junction and the prune site.
	Centers []*tree.Node
	// Radius is the vertex distance bound used with Centers; 1 selects
	// only the incident branches. Default 1.
	Radius int
}

func (o OptOptions) withDefaults() OptOptions {
	if o.Passes <= 0 {
		o.Passes = 8
	}
	if o.Radius <= 0 {
		o.Radius = 1
	}
	return o
}

// OptimizeBranches optimizes branch lengths in place and returns the final
// log-likelihood. With Centers set, only nearby branches are
// optimized but the returned value is still the full-tree log-likelihood.
//
// It runs full depth-first Newton sweeps until a pass improves the
// log-likelihood by less than passTol or the pass budget runs out. The visit
// order is fixed once per call — the topology does not change while
// smoothing — in the engine-owned edge buffer, so the passes themselves
// allocate nothing; a restricted call keeps only the edges with an
// endpoint marked near a center.
func (e *CachedEngine) OptimizeBranches(t *tree.Tree, opt OptOptions) (float64, error) {
	defer e.endEval(e.beginEval())
	opt = opt.withDefaults()
	if err := e.checkTree(t); err != nil {
		return 0, err
	}
	e.ensureBuffers(t.MaxID())

	e.gradBuf = gradCollect(e.gradBuf[:0], smoothAnchor(t), nil)
	if len(opt.Centers) > 0 {
		e.near = slices.Grow(e.near[:0], t.MaxID())[:t.MaxID()]
		clear(e.near)
		for _, c := range opt.Centers {
			if c != nil {
				e.markNear(c, nil, opt.Radius)
			}
		}
		kept := e.gradBuf[:0]
		for _, g := range e.gradBuf {
			if e.near[g.A.ID] || e.near[g.B.ID] {
				kept = append(kept, g)
			}
		}
		e.gradBuf = kept
	}
	prev := math.Inf(-1)
	last := prev
	for pass := 0; pass < opt.Passes; pass++ {
		e.smoothPass()
		e.stats.SmoothPasses++
		if pass == 0 && opt.Passes == 2 {
			// Pass 0's lnL is only the baseline of the stop test after
			// pass 1, which ends a loop that ends there anyway.
			continue
		}
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

// markNear marks every node fewer than radius vertices from n (walking
// away from parent): the branches a restricted optimization may touch
// are exactly those with a marked endpoint. Paths in a tree are unique,
// so the depth-bounded walk needs no visited set, and marks from several
// centers simply union.
func (e *CachedEngine) markNear(n, parent *tree.Node, radius int) {
	if radius <= 0 {
		return
	}
	e.near[n.ID] = true
	for _, m := range n.Nbr {
		if m != parent {
			e.markNear(m, n, radius-1)
		}
	}
}

// smoothPass performs one smoothing pass over the collected edges:
// depth-first from the anchor, each edge once, children in node-ID order
// (Nbr order is not stable across topology edits) so the sequence of
// Newton updates — and therefore the exact optimized lengths — is
// independent of the tree's edit history. Both directed partials come
// from the CLV cache, so each visit recomputes only the vectors the
// previous Newton updates invalidated — on a locally-edited tree, almost
// nothing — and each update unstamps only the entries that read the
// branch it moved.
func (e *CachedEngine) smoothPass() {
	for i := range e.gradBuf {
		p, u := e.gradBuf[i].A, e.gradBuf[i].B
		a := e.partial(p, u) // rest of tree seen from u
		b := e.partial(u, p) // subtree at u
		z0 := u.LenTo(p)
		z := e.newtonEdge(a, b, z0)
		e.setLen(p, u, z) // no-op (and no invalidation) when z == z0
	}
}

// newtonEdge maximizes the edge log-likelihood over the branch length,
// starting from z0, on first and second derivatives alone (fastDNAml's
// makenewz): the two partials are folded into per-pattern spectral sums
// once, together with the first iterate's derivatives, and every further
// iterate reads only those sums — a few multiply-adds and one reciprocal
// per pattern; the likelihood value is never evaluated. It returns the
// last iterate whose derivatives were evaluated — z0 itself when z0 is
// already converged, so a settled branch is not nudged and its cached
// CLVs stay valid. What bounds a bad step is newtonStep: the length
// clamp, the ×8 / ÷8 damping and the geometric move on non-concave
// stretches.
func (e *CachedEngine) newtonEdge(a, b clvRef, z0 float64) float64 {
	z := clampLen(z0)
	e.kern.a, e.kern.b = a, b
	for iter, op := 0, kFoldGrad; iter < newtonMaxIter; iter, op = iter+1, kSpecEval {
		d1, d2 := e.specGradient(op, z)
		next, stop := newtonStep(z, d1, d2)
		if stop {
			break
		}
		z = next
	}
	return z
}

// newtonStep computes the next Newton iterate for a branch length from
// the current iterate and the first/second derivatives of the edge
// log-likelihood, reporting stop=true when iteration should end (an
// unusable step or convergence within newtonTol). It is a pure function
// shared by every in-tree engine so backends walk bit-identical iterate
// sequences from identical derivatives.
func newtonStep(z, d1, d2 float64) (float64, bool) {
	var next float64
	if d2 < 0 {
		next = z - d1/d2
	} else {
		// Not locally concave: move geometrically in the gradient
		// direction (the likelihood is convex in z when the optimum
		// sits at a bound, e.g. identical sequences).
		if d1 > 0 {
			next = z * 8
		} else {
			next = z / 8
		}
	}
	if math.IsNaN(next) || math.IsInf(next, 0) {
		return z, true
	}
	next = clampLen(next)
	// Dampen huge Newton jumps (fastDNAml limits the step as well).
	if next > 8*z {
		next = 8 * z
	}
	if next < z/8 {
		next = z / 8
	}
	next = clampLen(next)
	if math.Abs(next-z) < newtonTol*(z+newtonTol) {
		return next, true
	}
	return next, false
}

// OptimizeEdge optimizes a single edge's branch length in place and
// returns the resulting full-tree log-likelihood. Exposed for tests and
// fine-grained use.
func (e *CachedEngine) OptimizeEdge(t *tree.Tree, ed tree.Edge) (float64, error) {
	defer e.endEval(e.beginEval())
	if err := e.checkTree(t); err != nil {
		return 0, err
	}
	if ed.A.NbrIndex(ed.B) < 0 {
		return 0, fmt.Errorf("likelihood: edge %d-%d: %w", ed.A.ID, ed.B.ID, ErrEdgeNotFound)
	}
	e.ensureBuffers(t.MaxID())
	a := e.partial(ed.A, ed.B)
	b := e.partial(ed.B, ed.A)
	z := e.newtonEdge(a, b, ed.Length())
	e.setLen(ed.A, ed.B, z)
	return e.edgeLogLikelihood(a, b, z), nil
}
