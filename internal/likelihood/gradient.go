package likelihood

import (
	"fmt"

	"repro/internal/tree"
)

// Linear-time all-branches gradient (Ji et al., "Gradients do grow on
// trees", arXiv:1905.12146).
//
// The gradient of the total log-likelihood with respect to every branch
// length is available in O(N) kernel work: the post-order pass fills
// each node's down-partial (the subtree CLV, already what the directed
// cache stores), the pre-order pass fills each up-partial — which in
// the per-directed-edge cache is just partial(parent, child), the rest
// of the tree seen across the edge — and then every edge's ∂lnL/∂z and
// ∂²lnL/∂z² fall out of one sharded reduction over its two directed
// partials. Both passes run through the same memoized partial()
// recursion the evaluator uses, so they reuse the fused combine2/AVX2
// machinery and cost exactly one fill per directed edge.
//
// The gradient is a capability (GradientSmoother), checked against
// finite differences by difftest. The walk order (gradCollect from
// smoothAnchor) and the derivative kernel (edgeGradient, specGradient)
// are also the Newton sweep's own (newton.go).

// BranchGrad is one branch's entry in the all-branches gradient: the
// edge (A on the anchor side), the length the derivatives were
// evaluated at, and the first/second derivatives of the total
// log-likelihood with respect to that length.
type BranchGrad struct {
	A, B      *tree.Node
	Z, D1, D2 float64
}

// BranchGradients computes the gradient (and diagonal Hessian) of the
// tree's log-likelihood with respect to every branch length at the
// current lengths, appending one entry per edge to dst (pre-order from
// a deterministic anchor, children in node-ID order) and returning the
// extended slice plus the tree's log-likelihood. The tree is not
// modified. Total kernel work is linear in the number of branches:
// one CLV fill per directed edge not already cached, one gradient
// reduction per edge, and a single log-likelihood reduction.
func (e *CachedEngine) BranchGradients(t *tree.Tree, dst []BranchGrad) ([]BranchGrad, float64, error) {
	defer e.endEval(e.beginEval())
	if err := e.checkTree(t); err != nil {
		return dst, 0, err
	}
	e.ensureBuffers(t.MaxID())
	return e.branchGradients(t, dst)
}

// branchGradients is the uninstrumented core of BranchGradients.
func (e *CachedEngine) branchGradients(t *tree.Tree, dst []BranchGrad) ([]BranchGrad, float64, error) {
	dst = gradCollect(dst[:0], smoothAnchor(t), nil)
	if len(dst) == 0 {
		return dst, 0, fmt.Errorf("likelihood: tree has no edges")
	}
	// Pre-order edge walk: partial(A, B) is the up-partial (rest of the
	// tree seen from B), filled top-down so deeper edges reuse the
	// shallower fills; partial(B, A) is the cached down-partial.
	for i := range dst {
		g := &dst[i]
		a, _ := e.partial(g.A, g.B)
		b, _ := e.partial(g.B, g.A)
		g.D1, g.D2 = e.edgeGradient(a, b, g.Z)
	}
	// Round log-likelihood at the first edge: its partials are already
	// cached, so this costs one reduction kernel, no fills.
	a, _ := e.partial(dst[0].A, dst[0].B)
	b, _ := e.partial(dst[0].B, dst[0].A)
	return dst, e.edgeLogLikelihood(a, b, dst[0].Z), nil
}

// gradCollect appends one BranchGrad per edge below u (excluding the
// edge to p) in pre-order, children in node-ID order — the same
// edit-history-independent order smoothPass visits. Selection sort over
// the (≤3) neighbors keeps the walk allocation-free.
func gradCollect(dst []BranchGrad, u, p *tree.Node) []BranchGrad {
	lastID := -1
	for range u.Nbr {
		ci := -1
		for i, nb := range u.Nbr {
			if nb == p || nb.ID <= lastID {
				continue
			}
			if ci < 0 || nb.ID < u.Nbr[ci].ID {
				ci = i
			}
		}
		if ci < 0 {
			break
		}
		c := u.Nbr[ci]
		lastID = c.ID
		dst = append(dst, BranchGrad{A: u, B: c, Z: u.Len[ci]})
		dst = gradCollect(dst, c, u)
	}
	return dst
}

// smoothAnchor picks the deterministic traversal root OptimizeBranches
// and BranchGradients share: any node, preferring an inner one.
func smoothAnchor(t *tree.Tree) *tree.Node {
	anchor := t.AnyNode()
	if anchor.Leaf() {
		// Fall back to its neighbor when the tree is a single cherry.
		if anchor.Degree() > 0 && !anchor.Nbr[0].Leaf() {
			anchor = anchor.Nbr[0]
		}
	}
	return anchor
}

// edgeGradient folds the two directed partials of an edge into the
// engine's spectral lanes and returns d/dz and d²/dz² of the edge
// log-likelihood at z, in one kernel pass: the whole cost of an
// all-branches gradient entry and of a solve that stops at its first
// iterate.
func (e *CachedEngine) edgeGradient(a, b clvRef, z float64) (float64, float64) {
	e.kern.a, e.kern.b = a, b
	return e.specGradient(kFoldGrad, z)
}

// specGradient runs one derivative evaluation at z: op kFoldGrad folds
// the partials in e.kern first, kSpecEval evaluates a further iterate of
// the same solve from the folded lanes alone. Every derivative
// evaluation on every path comes through here, which is what makes
// NewtonIters and the work-unit counts exact.
func (e *CachedEngine) specGradient(op int, z float64) (float64, float64) {
	z = clampLen(z)
	for ci, r := range e.classRates {
		e.specC[ci].fill(e.decomp.Lambda, z, r)
	}
	if op == kFoldGrad {
		e.ops += uint64(e.npat) * foldOps(len(e.foldM))
	}
	e.ops += uint64(e.npat) * evalOps(len(e.foldM))
	e.stats.NewtonIters++
	e.kern.op = op
	e.runShards()
	// Ordered reduction over the per-shard partials.
	d1, d2 := 0.0, 0.0
	for s := range e.shards {
		d1 += e.shD1[s]
		d2 += e.shD2[s]
	}
	return d1, d2
}
