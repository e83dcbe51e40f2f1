package likelihood

import (
	"time"

	"repro/internal/tree"
)

// CLV cache: memoized conditional likelihood vectors per directed edge.
//
// partial(n, parent) — the likelihood of the subtree at n seen from
// parent — is a pure function of the subtree topology and its branch
// lengths. The cache stores one entry per directed edge.
//
// Validity is exact: an entry remembers which node object it was computed
// for (pointer identity, so a recycled node ID cannot alias a stale
// entry) and, for each child it combined, the child node, the
// generation of the child's CLV and the branch length to it — everything
// the vector reads, and nothing else: the length of the edge to parent
// is not an input. Generations are globally monotonic and bumped
// whenever an entry is refilled, so a structural check at n proves
// transitively that every CLV below n is unchanged.
//
// Stamps make that check rare. The cache remembers which tree, at which
// value of its edit counter (tree.Tree.Edits), its stamps speak for; an
// entry proven valid in the current stamp generation is a hit on one
// comparison. A lookup that finds another tree or a counter the engine
// did not advance itself — after ApplySPR, Undo, InsertLeaf, a caller's
// SetLen, or a tree switch — re-bases (starts a new generation), and the
// structural walk runs once and re-stamps what it proves. The engine's
// own length changes (smoothing, OptimizeEdge) go through setLen, which
// unstamps exactly the entries whose subtree contains the edited edge
// and then advances the expected counter, so every other stamp stays
// trusted. InvalidateEdge and InvalidateAll exist for callers that mutate
// branch lengths behind the tree package's back; both re-base.
//
// Cache hits perform zero pattern-level work and add nothing to the ops
// counter; only refills count, keeping the work-unit accounting that the
// cluster simulator consumes honest.

// tipGen is the generation reported for leaf tips. Tip vectors are
// constant, so a single reserved generation below every entry generation
// suffices; nextGen starts above it.
const tipGen uint64 = 1

// EngineStats counts cache behaviour since the last ResetStats.
type EngineStats struct {
	// Hits counts lookups served from the cache without a refill: an
	// entry stamped in the current generation, or one the structural
	// check proved unchanged. A stamped entry is one lookup however deep
	// its subtree, so Hits counts far fewer lookups than when every hit
	// re-walked its subtree, and Hits/(Hits+Misses) — the benchmark's
	// likelihood.cache_hit_ratio — is lower for the same work.
	Hits uint64
	// Misses counts lookups that refilled their entry.
	Misses uint64
	// Recomputed counts CLV refills — the kernel work the cache could not
	// avoid; equal to Misses today but kept separate so future prefill
	// paths can recompute without a lookup.
	Recomputed uint64
	// Invalidated counts entries explicitly marked stale via
	// InvalidateEdge.
	Invalidated uint64
	// Flushes counts InvalidateAll calls.
	Flushes uint64
	// Entries is the number of cache entries currently allocated
	// (filled or not); a gauge, not a counter.
	Entries int
	// NewtonIters counts Newton-Raphson iterations across every branch
	// length optimization (the per-phase work measure of the paper's §4
	// breakdown that pure op counts miss). All-branches gradient entries
	// count here too: each is one Newton iterate's worth of kernel work.
	NewtonIters uint64
	// SmoothPasses counts Newton sweep passes over the tree
	// (OptimizeBranches).
	SmoothPasses uint64
	// ShardDispatches counts kernel launches fanned out to the thread
	// pool (zero for single-threaded engines).
	ShardDispatches uint64
	// EvalTime is wall-clock time spent inside the engine's evaluation
	// entry points (LogLikelihood, OptimizeBranches, insertion scoring).
	EvalTime time.Duration
}

// kidRef records one child combined into an entry: which node, the
// generation of its CLV at combine time and the length of the branch to
// it, plus (during a walk) the child's vector.
type kidRef struct {
	node *tree.Node
	gen  uint64
	z    float64
	ref  *clvRef
}

// sameKid reports whether two kidRefs name the same input to a fill.
func sameKid(a, b kidRef) bool {
	return a.node == b.node && a.gen == b.gen && a.z == b.z
}

// clvEntry caches the CLV of one directed edge (node seen from parent).
//
// Stamp invariant: a stamped entry's children are stamped (tips always
// count as stamped). A lookup stamps an entry only after its children,
// and unstampAway clears outward from an edge, so an unstamped entry has
// no stamped entry beyond it — which is what lets that walk stop at the
// first entry it finds already unstamped.
type clvEntry struct {
	node   *tree.Node
	parent *tree.Node
	kids   []kidRef // children as of the last fill, in node-ID order
	tmp    []kidRef // per-walk scratch, swapped with kids on a fill
	gen    uint64
	seen   uint64 // stamp generation the entry was last proven valid in
	filled bool
	ref    clvRef // slab-backed buffers; ref.sc == nil until first fill
}

// clvCache indexes entries by node ID (small per-node lists, at most one
// per live direction plus transients from released-and-reused IDs).
type clvCache struct {
	byNode [][]*clvEntry
	gen    uint64

	// Stamps: the current generation, and the tree and edit count it
	// speaks for. Generation 0 is never current, so a zero seen is
	// "unstamped".
	stamp uint64
	tree  *tree.Tree
	edits uint64

	// Buffer geometry: every CLV buffer is 4 SoA lanes of npad entries
	// (the engine's padded pattern count).
	npad int

	// Slab arena for entry buffers: CLV and scale vectors are carved out
	// of shared slabs (clvSlabEntries entries per slab) instead of being
	// allocated one make() pair per entry, so growing a tree allocates
	// O(taxa / slabEntries) times rather than O(taxa) and steady-state
	// evaluation allocates nothing.
	slabF []float64
	slabI []int32
}

// clvSlabEntries is how many entries' worth of buffers one slab holds.
const clvSlabEntries = 16

// allocCLV carves one entry's CLV and scale buffers from the slabs,
// sized for the padded SoA layout (4 lanes of npad each). Slab memory
// comes from make() and padded tail entries are never written, so
// padding stays exactly zero for the buffer's lifetime.
func (c *clvCache) allocCLV() clvRef {
	nf, ni := c.npad*4, c.npad
	var ref clvRef
	if cap(c.slabF)-len(c.slabF) < nf {
		c.slabF = make([]float64, 0, nf*clvSlabEntries)
	}
	ref.f64 = c.slabF[len(c.slabF) : len(c.slabF)+nf : len(c.slabF)+nf]
	c.slabF = c.slabF[:len(c.slabF)+nf]
	if cap(c.slabI)-len(c.slabI) < ni {
		c.slabI = make([]int32, 0, ni*clvSlabEntries)
	}
	ref.sc = c.slabI[len(c.slabI) : len(c.slabI)+ni : len(c.slabI)+ni]
	c.slabI = c.slabI[:len(c.slabI)+ni]
	return ref
}

func (c *clvCache) nextGen() uint64 {
	if c.gen < tipGen {
		c.gen = tipGen
	}
	c.gen++
	return c.gen
}

// sync runs at the top of every lookup: when t is not the tree the stamps
// speak for, or its edit counter moved without the engine advancing it,
// the stamps are re-based. Never called inside a walk.
func (c *clvCache) sync(t *tree.Tree) {
	if t != c.tree || t.Edits() != c.edits {
		c.stamp++
		c.tree, c.edits = t, t.Edits()
	}
}

func (c *clvCache) grow(n int) {
	for len(c.byNode) < n {
		c.byNode = append(c.byNode, nil)
	}
}

// entryFor returns the entry for directed edge (n seen from parent),
// creating or recycling one as needed. The returned entry is not
// necessarily valid; partial() decides that.
func (c *clvCache) entryFor(n, parent *tree.Node) *clvEntry {
	c.grow(n.ID + 1)
	var reuse *clvEntry
	for _, ent := range c.byNode[n.ID] {
		if ent.node == n && ent.parent == parent {
			return ent
		}
		// Entries for a node object that no longer owns this ID, or for
		// a direction that no longer exists, are recycled in place so the
		// per-ID lists stay bounded across tree edits.
		if reuse == nil && (ent.node != n || n.NbrIndex(ent.parent) < 0) {
			reuse = ent
		}
	}
	if reuse != nil {
		reuse.node, reuse.parent = n, parent
		reuse.filled = false
		return reuse
	}
	ent := &clvEntry{node: n, parent: parent}
	c.byNode[n.ID] = append(c.byNode[n.ID], ent)
	return ent
}

// peek returns the entry for (n, parent) without creating one.
func (c *clvCache) peek(n, parent *tree.Node) *clvEntry {
	if n.ID >= len(c.byNode) {
		return nil
	}
	for _, ent := range c.byNode[n.ID] {
		if ent.node == n && ent.parent == parent {
			return ent
		}
	}
	return nil
}

// Stats returns the counters since the last ResetStats plus the current
// entry gauge.
func (e *CachedEngine) Stats() EngineStats {
	s := e.stats
	for _, list := range e.cache.byNode {
		s.Entries += len(list)
	}
	return s
}

// ResetStats zeroes the cache counters and returns the previous values.
// The cache contents are untouched.
func (e *CachedEngine) ResetStats() EngineStats {
	s := e.Stats()
	e.stats = EngineStats{}
	return s
}

// InvalidateAll marks every cached CLV stale and re-bases the stamps.
// Entry buffers are kept for reuse.
func (e *CachedEngine) InvalidateAll() {
	for _, list := range e.cache.byNode {
		for _, ent := range list {
			ent.filled = false
		}
	}
	e.cache.stamp++
	e.stats.Flushes++
}

// InvalidateEdge marks stale every cached CLV whose value depends on the
// length of edge (a, b): on each side of the edge, all directions
// pointing away from it. The two CLVs (a seen from b) and (b seen from a)
// do not depend on the edge's own length and stay valid. The stamps are
// re-based too. Use this after mutating branch lengths directly instead
// of through tree.SetLen.
func (e *CachedEngine) InvalidateEdge(a, b *tree.Node) {
	e.invalAway(a, b)
	e.invalAway(b, a)
	e.cache.stamp++
}

// setLen is how the engine changes a branch length itself: after
// tree.SetLen it clears the stamps of exactly the entries whose subtree
// contains edge p–u, walking outward from the edge on both sides, and
// advances the edit count the stamps speak for, so every other stamp
// stays trusted. When the stamps did not speak for this tree's current
// state anyway, the next lookup re-bases and there is nothing to keep.
func (e *CachedEngine) setLen(p, u *tree.Node, z float64) {
	t, c := p.Tree(), &e.cache
	before := t.Edits()
	tree.SetLen(p, u, z)
	if t.Edits() != before && t == c.tree && before == c.edits {
		e.unstampAway(p, u)
		e.unstampAway(u, p)
		c.edits = t.Edits()
	}
}

// unstampAway clears the stamp of every entry that looks across x toward
// from's side, walking outward from x. By the stamp invariant (clvEntry)
// nothing beyond an unstamped or absent entry is stamped, so the walk
// stops there and costs no more than the stamps it clears.
func (e *CachedEngine) unstampAway(x, from *tree.Node) {
	for _, nb := range x.Nbr {
		if nb == from {
			continue
		}
		if ent := e.cache.peek(x, nb); ent != nil && ent.seen == e.cache.stamp {
			ent.seen = 0
			e.unstampAway(nb, x)
		}
	}
}

// invalAway walks outward from x (not crossing back toward `from`),
// marking every directed entry that looks across x toward `from`'s side.
func (e *CachedEngine) invalAway(x, from *tree.Node) {
	for _, nb := range x.Nbr {
		if nb == from {
			continue
		}
		if ent := e.cache.peek(x, nb); ent != nil && ent.filled {
			ent.filled = false
			e.stats.Invalidated++
		}
		e.invalAway(nb, x)
	}
}
