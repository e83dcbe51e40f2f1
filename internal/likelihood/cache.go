package likelihood

import (
	"encoding/json"
	"time"

	"repro/internal/tree"
)

// CLV cache: memoized conditional likelihood vectors per directed edge.
//
// partial(n, parent) — the likelihood of the subtree at n seen from
// parent — is a pure function of the subtree topology and its branch
// lengths. The cache stores one entry per directed edge and validates it
// structurally on every lookup: the entry remembers which node object it
// was computed for (pointer identity, so a recycled node ID cannot alias
// a stale entry), that node's edge-revision counter at fill time, and the
// child entries it combined, identified by (node pointer, generation).
// Generations are globally monotonic and bumped whenever an entry is
// refilled, so a hit at node n proves transitively that every CLV below n
// is unchanged — without timestamps or explicit dependency edges.
//
// Invalidation is therefore mostly automatic: tree.SetLen and topology
// edits bump the endpoint revisions and the next lookup misses. The
// explicit InvalidateEdge/InvalidateAll entry points exist for callers
// that mutate branch lengths behind the tree package's back.
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
	// Hits counts partial() lookups served from a valid cache entry.
	Hits uint64
	// Misses counts lookups that found no valid entry.
	Misses uint64
	// Recomputed counts CLV refills; equal to Misses today but kept
	// separate so future prefill paths can recompute without a lookup.
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
	// breakdown that pure op counts miss). Gradient-mode derivative
	// evaluations count here too: each is one Newton iterate's worth of
	// kernel work.
	NewtonIters uint64
	// SmoothPasses counts sequential Newton sweep passes over the tree
	// (OptimizeBranches in sweep mode, and the safeguarded fallback).
	SmoothPasses uint64
	// GradPasses counts applied simultaneous gradient-smoothing rounds
	// (OptimizeBranches in gradient mode).
	GradPasses uint64
	// GradFallbacks counts gradient rounds that lost likelihood, were
	// reverted, and fell back to the sequential sweep.
	GradFallbacks uint64
	// ShardDispatches counts kernel launches fanned out to the thread
	// pool (zero for single-threaded engines).
	ShardDispatches uint64
	// EvalTime is wall-clock time spent inside the engine's evaluation
	// entry points (LogLikelihood, OptimizeBranches, insertion scoring).
	// Stored at full time.Duration precision; the JSON form keeps the
	// historical milliseconds field (fractional, so nothing is lost).
	EvalTime time.Duration
}

// engineStatsJSON is the wire/JSON shape of EngineStats. Elapsed time is
// exported as fractional milliseconds ("eval_time_ms") for backward
// compatibility with consumers of the old integer-ms convention, while
// the in-memory representation is a full-precision time.Duration.
type engineStatsJSON struct {
	Hits        uint64  `json:"hits"`
	Misses      uint64  `json:"misses"`
	Recomputed  uint64  `json:"recomputed"`
	Invalidated uint64  `json:"invalidated"`
	Flushes     uint64  `json:"flushes"`
	Entries     int     `json:"entries"`
	NewtonIters uint64  `json:"newton_iters"`
	SmoothPass  uint64  `json:"smooth_passes,omitempty"`
	GradPass    uint64  `json:"grad_passes,omitempty"`
	GradFall    uint64  `json:"grad_fallbacks,omitempty"`
	ShardDisp   uint64  `json:"shard_dispatches,omitempty"`
	EvalTimeMs  float64 `json:"eval_time_ms"`
}

// MarshalJSON implements json.Marshaler.
func (s EngineStats) MarshalJSON() ([]byte, error) {
	return json.Marshal(engineStatsJSON{
		Hits: s.Hits, Misses: s.Misses, Recomputed: s.Recomputed,
		Invalidated: s.Invalidated, Flushes: s.Flushes, Entries: s.Entries,
		NewtonIters: s.NewtonIters, SmoothPass: s.SmoothPasses,
		GradPass: s.GradPasses, GradFall: s.GradFallbacks,
		ShardDisp:  s.ShardDispatches,
		EvalTimeMs: float64(s.EvalTime) / float64(time.Millisecond),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *EngineStats) UnmarshalJSON(data []byte) error {
	var j engineStatsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = EngineStats{
		Hits: j.Hits, Misses: j.Misses, Recomputed: j.Recomputed,
		Invalidated: j.Invalidated, Flushes: j.Flushes, Entries: j.Entries,
		NewtonIters: j.NewtonIters, SmoothPasses: j.SmoothPass,
		GradPasses: j.GradPass, GradFallbacks: j.GradFall,
		ShardDispatches: j.ShardDisp,
		EvalTime:        time.Duration(j.EvalTimeMs * float64(time.Millisecond)),
	}
	return nil
}

// kidRef records one child combined into an entry: which node, the
// generation of its CLV at combine time, and (during a fill) the vector
// view and branch length to combine.
type kidRef struct {
	node *tree.Node
	gen  uint64
	ref  clvRef
	z    float64
}

// clvEntry caches the CLV of one directed edge (node seen from parent).
type clvEntry struct {
	node    *tree.Node
	parent  *tree.Node
	nodeRev uint64
	kids    []kidRef // children validated at fill time (refs not retained)
	gen     uint64
	filled  bool
	ref     clvRef   // slab-backed buffers; ref.sc == nil until first fill
	tmp     []kidRef // per-traversal scratch, reused
}

// clvCache indexes entries by node ID (small per-node lists, at most one
// per live direction plus transients from released-and-reused IDs).
type clvCache struct {
	byNode [][]*clvEntry
	gen    uint64

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

// InvalidateAll marks every cached CLV stale. Entry buffers are kept for
// reuse.
func (e *CachedEngine) InvalidateAll() {
	for _, list := range e.cache.byNode {
		for _, ent := range list {
			ent.filled = false
		}
	}
	e.stats.Flushes++
}

// InvalidateEdge marks stale every cached CLV whose value depends on the
// length of edge (a, b): on each side of the edge, all directions
// pointing away from it. The two CLVs (a seen from b) and (b seen from a)
// do not depend on the edge's own length and stay valid. Use this after
// mutating branch lengths directly instead of through tree.SetLen.
func (e *CachedEngine) InvalidateEdge(a, b *tree.Node) {
	e.invalAway(a, b)
	e.invalAway(b, a)
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
