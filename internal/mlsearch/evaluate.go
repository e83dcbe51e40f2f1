package mlsearch

import (
	"fmt"
	"time"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// Evaluator executes Tasks against one engine. The serial dispatcher and
// the worker process share it, so serial and parallel runs produce
// bit-identical results for the same tasks.
//
// Tasks are evaluated against their round's base tree, which the
// evaluator parses once and keeps — along with the engine's CLV cache —
// across every task of the round. Candidate insertions never touch the
// base tree at all; rearrangement candidates are applied, scored, and
// undone with every modified branch length restored, so the cache stays
// warm from task to task. A smoothing task (the empty edit) optimizes the
// base itself and then forgets it. Because cached CLVs are
// bit-identical to freshly computed ones, results do not depend on task
// order or on which worker evaluates which task. A candidate's result is
// its score and the branch lengths the optimizer moved, never a rendered
// tree: applyCandidate rebuilds the one candidate a round adopts.
type Evaluator struct {
	eng  likelihood.Engine
	taxa []string

	// Shared-base state, keyed by the base Newick string.
	baseKey string
	base    *tree.Tree
	// baseEdges is base.Edges(), nil after a rearrangement's apply/undo
	// replaced node objects until an insertion needs it again.
	baseEdges []tree.Edge
	// baseLens snapshots every base edge length (by endpoint IDs) so
	// rearrangement evaluation can restore the exact pre-move state.
	baseLens []edgeLenSnap

	scorer      likelihood.InsertScorer
	scorerTaxon int32
}

type edgeLenSnap struct {
	a, b int
	l    float64
}

// NewEvaluator wraps a likelihood engine for task evaluation. Any
// registered Engine backend works; per-task cache/ops accounting in
// Results degrades to zeros when the engine does not implement the
// corresponding capability interfaces.
func NewEvaluator(eng likelihood.Engine, taxa []string) *Evaluator {
	return &Evaluator{eng: eng, taxa: taxa, scorerTaxon: -1}
}

// NewConfigEvaluator is the one place a run's evaluation identity —
// data, model, engine backend, kernel threads —
// becomes an evaluator. Every in-tree owner of an evaluator (serial
// dispatcher, foreman inline fallback, worker, KH test, serve pod) builds
// it here from the normalized Config and closes it when done.
func NewConfigEvaluator(norm Config) (*Evaluator, error) {
	eng, err := likelihood.NewEngine(norm.Engine, norm.Model, norm.Patterns, likelihood.EngineOptions{Threads: norm.Threads})
	if err != nil {
		return nil, err
	}
	return NewEvaluator(eng, norm.Taxa), nil
}

// Close releases the evaluator's engine (its shard pool and CLV slabs).
// The evaluator must not be used afterwards.
func (ev *Evaluator) Close() { likelihood.CloseEngine(ev.eng) }

// SetSmoothMode accepts likelihood.SmoothSweep, the only smoother, and
// panics with likelihood.CheckSmoothMode's refusal on any other mode: it
// has no error return, and a mode it ignored would run a different
// smoother than the caller asked for without a word. It remains only
// because the benchmark module calls it (ROADMAP item 6).
func (ev *Evaluator) SetSmoothMode(m likelihood.SmoothMode) {
	if err := likelihood.CheckSmoothMode(m); err != nil {
		panic(err)
	}
}

// Evaluate runs one task and returns the result. The Ops field reports
// the work units consumed by exactly this evaluation; CacheHits and
// CacheMisses report the CLV cache behaviour over the same span; Eval
// and NewtonIters time and count the work so the foreman can attribute
// per-phase latency to the task's trace span.
func (ev *Evaluator) Evaluate(t Task) (Result, error) {
	start := time.Now()
	opsBefore := likelihood.OpsOf(ev.eng)
	statsBefore := likelihood.StatsOf(ev.eng)

	var (
		lens []EdgeLen
		lnL  float64
		err  error
	)
	switch {
	case t.InsertEdge >= 0:
		lens, lnL, err = ev.evalInsert(t)
	case t.MoveS >= 0:
		lens, lnL, err = ev.evalMove(t)
	default:
		lens, lnL, err = ev.evalSmooth(t)
	}
	if err != nil {
		return Result{}, err
	}
	statsAfter := likelihood.StatsOf(ev.eng)
	return Result{
		TaskID:      t.ID,
		Round:       t.Round,
		Lens:        lens,
		LnL:         lnL,
		Ops:         likelihood.OpsOf(ev.eng) - opsBefore,
		CacheHits:   statsAfter.Hits - statsBefore.Hits,
		CacheMisses: statsAfter.Misses - statsBefore.Misses,
		NewtonIters: statsAfter.NewtonIters - statsBefore.NewtonIters,
		Eval:        time.Since(start),
		Trace:       t.Trace,
		Job:         t.Job,
	}, nil
}

// evalSmooth is the empty edit (init and smooth rounds): optimize every
// branch of the base and return the lengths that moved. The base's
// lengths then no longer match its key, so the evaluator forgets it; a
// later task on the same string parses it afresh.
func (ev *Evaluator) evalSmooth(t Task) ([]EdgeLen, float64, error) {
	if err := ev.ensureBase(t.BaseNewick); err != nil {
		return nil, 0, fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
	}
	lnL, err := ev.eng.OptimizeBranches(ev.base, likelihood.OptOptions{Passes: int(t.Passes)})
	lens := ev.changedLens(nil, -1)
	ev.base = nil
	if err != nil {
		return nil, 0, fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
	}
	return lens, lnL, nil
}

// ensureBase parses and caches the shared base tree for a batch.
func (ev *Evaluator) ensureBase(nwk string) error {
	if ev.base != nil && ev.baseKey == nwk {
		return nil
	}
	tr, err := tree.ParseNewick(nwk, ev.taxa)
	if err != nil {
		return err
	}
	ev.base = tr
	ev.baseKey = nwk
	ev.baseEdges = tr.Edges()
	ev.baseLens = ev.baseLens[:0]
	for _, e := range ev.baseEdges {
		ev.baseLens = append(ev.baseLens, edgeLenSnap{a: e.A.ID, b: e.B.ID, l: e.Length()})
	}
	ev.scorer = nil
	ev.scorerTaxon = -1
	return nil
}

// evalInsert scores inserting LocalTaxon at base edge InsertEdge using
// the shared-base scorer: O(patterns) at the insertion edge, with the
// base tree's directed partials computed once and shared by every
// candidate of the round. It returns the three junction lengths.
func (ev *Evaluator) evalInsert(t Task) ([]EdgeLen, float64, error) {
	if err := ev.ensureBase(t.BaseNewick); err != nil {
		return nil, 0, fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
	}
	if ev.baseEdges == nil {
		ev.baseEdges = ev.base.Edges()
	}
	if int(t.InsertEdge) >= len(ev.baseEdges) {
		return nil, 0, fmt.Errorf("mlsearch: task %d: insert edge %d of %d", t.ID, t.InsertEdge, len(ev.baseEdges))
	}
	if ev.scorer == nil || ev.scorerTaxon != t.LocalTaxon {
		sc, err := ev.eng.NewInsertScorer(ev.base, int(t.LocalTaxon))
		if err != nil {
			return nil, 0, fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
		}
		ev.scorer = sc
		ev.scorerTaxon = t.LocalTaxon
	}
	ed := ev.baseEdges[t.InsertEdge]
	score, err := ev.scorer.Score(ed, int(t.Passes))
	if err != nil {
		return nil, 0, fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
	}
	return []EdgeLen{
		{A: int32(ed.A.ID), B: NodeJunction, Len: score.LenA},
		{A: NodeJunction, B: int32(ed.B.ID), Len: score.LenB},
		{A: NodeJunction, B: NodeNewLeaf, Len: score.LenLeaf},
	}, score.LnL, nil
}

// evalMove scores one rearrangement: apply the SPR move to the shared
// base, optimize the branches around the regraft junction and the prune
// site, note the lengths that differ from the moved tree's starting
// ones, then undo the move and restore every branch length so the next
// task starts from the identical base state.
func (ev *Evaluator) evalMove(t Task) ([]EdgeLen, float64, error) {
	if err := ev.ensureBase(t.BaseNewick); err != nil {
		return nil, 0, fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
	}
	mv := tree.SPRMove{P: int(t.MoveP), S: int(t.MoveS), TA: int(t.MoveTA), TB: int(t.MoveTB)}
	undo, err := ev.base.ApplySPR(mv)
	if err != nil {
		return nil, 0, fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
	}
	opt := likelihood.OptOptions{
		Passes:  int(t.Passes),
		Centers: []*tree.Node{undo.Mid, undo.Joined.A, undo.Joined.B},
		Radius:  2,
	}
	lnL, optErr := ev.eng.OptimizeBranches(ev.base, opt)
	var lens []EdgeLen
	if optErr == nil {
		lens = ev.movedLens(mv, undo)
	}
	undo.Undo()
	ev.restoreBaseLens()
	// The undo cycle dissolves and recreates internal nodes (same IDs,
	// new objects), so the cached edge list is stale should a later round
	// insert into this base (identical Newick string).
	ev.baseEdges = nil
	if optErr != nil {
		return nil, 0, fmt.Errorf("mlsearch: task %d: %w", t.ID, optErr)
	}
	return lens, lnL, nil
}

// movedLens lists the branches of the moved, optimized base whose length
// is not what ApplySPR alone gives them on a fresh copy of the base: the
// branches the move created (the joined edge and the junction's three),
// whatever their value, and every other branch that differs from the
// base snapshot. Those others have the same endpoints in both trees; the
// junction carries the dissolved node's ID.
func (ev *Evaluator) movedLens(mv tree.SPRMove, undo *tree.SPRUndo) []EdgeLen {
	lens := make([]EdgeLen, 0, 12)
	add := func(a, b *tree.Node) {
		lens = append(lens, EdgeLen{A: int32(a.ID), B: int32(b.ID), Len: a.LenTo(b)})
	}
	if j := undo.Joined; j.A.NbrIndex(j.B) >= 0 { // unless regrafted onto it
		add(j.A, j.B)
	}
	for _, nb := range undo.Mid.Nbr {
		add(undo.Mid, nb)
	}
	return ev.changedLens(lens, mv.P)
}

// changedLens appends to lens every branch of the base whose length
// differs from the base snapshot, passing over the branches of node skip
// (a move's dissolved attachment; -1 for none) and any the base no longer
// has (a move's target edge).
func (ev *Evaluator) changedLens(lens []EdgeLen, skip int) []EdgeLen {
	for _, s := range ev.baseLens {
		if s.a == skip || s.b == skip {
			continue
		}
		a, b := ev.base.Nodes[s.a], ev.base.Nodes[s.b]
		if i := a.NbrIndex(b); i >= 0 && a.Len[i] != s.l {
			lens = append(lens, EdgeLen{A: int32(a.ID), B: int32(b.ID), Len: a.Len[i]})
		}
	}
	return lens
}

// restoreBaseLens resets every base edge to its snapshot length. SetLen
// skips (and does not invalidate) edges already at the right value, so
// only the branches the optimizer actually moved cost cache entries.
func (ev *Evaluator) restoreBaseLens() {
	for _, s := range ev.baseLens {
		a, b := ev.base.Nodes[s.a], ev.base.Nodes[s.b]
		tree.SetLen(a, b, s.l)
	}
}
