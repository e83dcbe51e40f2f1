package mlsearch

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/tree"
)

// ErrStopped is returned (wrapped) by a search whose Stop channel closed.
// The search stops at the next round boundary — the last position handed
// to OnCheckpoint is exactly resumable — so callers distinguish a clean
// stop (flush the restart file, exit 0) from a real failure with
// errors.Is(err, ErrStopped).
var ErrStopped = errors.New("mlsearch: search stopped")

// Dispatcher evaluates a batch of tasks and returns their results in any
// order. The serial dispatcher runs them in-process; the parallel
// dispatcher routes them through the foreman to the workers (paper Fig 2:
// "the trees to be evaluated are distributed to the available workers").
type Dispatcher interface {
	Dispatch(tasks []Task) ([]Result, error)
}

// RoundKind labels what a dispatch round was for.
type RoundKind int

// Round kinds, in the order they appear during a search.
const (
	// RoundInit optimizes the initial 3-taxon tree (step 2).
	RoundInit RoundKind = iota
	// RoundAdd scores the 2i-5 insertion points of a new taxon (step 3).
	RoundAdd
	// RoundSmooth fully optimizes a round's best tree.
	RoundSmooth
	// RoundRearrange scores local rearrangement candidates (step 4).
	RoundRearrange
	// RoundFinal scores the final rearrangement candidates (step 5).
	RoundFinal
)

// String names the round kind.
func (k RoundKind) String() string {
	switch k {
	case RoundInit:
		return "init"
	case RoundAdd:
		return "add"
	case RoundSmooth:
		return "smooth"
	case RoundRearrange:
		return "rearrange"
	case RoundFinal:
		return "final"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// taskOverheadBytes approximates the serialized size of one shared-base
// task's candidate description (an edge index or four move IDs) for the
// GenBytes accounting; the base Newick itself is counted once per round.
const taskOverheadBytes = 20

// TaskStat records what one task cost, for the cluster simulator.
type TaskStat struct {
	// Ops is the likelihood work the task consumed (cache hits are free,
	// so shared-base tasks report only recomputed work).
	Ops uint64
	// LnL is the task's resulting log-likelihood.
	LnL float64
	// CacheHits and CacheMisses count the worker engine's CLV cache
	// lookups during the task.
	CacheHits, CacheMisses uint64
	// Elapsed is the worker-side evaluation time, kept at full
	// time.Duration precision in memory; the JSON form stays on the
	// millisecond convention (elapsed_ms) for existing consumers.
	Elapsed time.Duration
}

// taskStatJSON is the serialized form of TaskStat: elapsed time travels
// as fractional milliseconds so files written before the Duration change
// (and external tooling on the ms convention) keep working.
type taskStatJSON struct {
	Ops         uint64  `json:"ops"`
	LnL         float64 `json:"lnl"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	ElapsedMs   float64 `json:"elapsed_ms"`
}

// MarshalJSON renders Elapsed as fractional milliseconds.
func (s TaskStat) MarshalJSON() ([]byte, error) {
	return json.Marshal(taskStatJSON{
		Ops: s.Ops, LnL: s.LnL,
		CacheHits: s.CacheHits, CacheMisses: s.CacheMisses,
		ElapsedMs: obs.PhaseMs(s.Elapsed),
	})
}

// UnmarshalJSON accepts the milliseconds form, restoring full precision.
func (s *TaskStat) UnmarshalJSON(b []byte) error {
	var j taskStatJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = TaskStat{
		Ops: j.Ops, LnL: j.LnL,
		CacheHits: j.CacheHits, CacheMisses: j.CacheMisses,
		Elapsed: time.Duration(j.ElapsedMs * float64(time.Millisecond)),
	}
	return nil
}

// RoundStats records one dispatch round.
type RoundStats struct {
	// Kind is what the round did.
	Kind RoundKind
	// TaxaInTree is the number of taxa in the tree during the round.
	TaxaInTree int
	// Tasks holds per-task costs, in task order.
	Tasks []TaskStat
	// GenBytes is the total size of the candidate topologies the master
	// serialized for this round (a proxy for the master's serial work).
	GenBytes uint64
	// BestLnL is the best log-likelihood seen by the end of the round.
	BestLnL float64
}

// SearchResult is the outcome of one random ordering (one jumble).
type SearchResult struct {
	// BestNewick is the final tree with branch lengths.
	BestNewick string
	// LnL is the final log-likelihood.
	LnL float64
	// Order is the taxon insertion order used.
	Order []int
	// Seed is the normalized seed the ordering actually ran with.
	// Resumed searches carry the checkpoint's seed, which callers must
	// not re-derive from the jumble index.
	Seed int64
	// Rounds is the per-round log consumed by the cluster simulator
	// (nil when Config.DisableRoundLog).
	Rounds []RoundStats
	// TotalTasks counts every dispatched task.
	TotalTasks int
	// TotalOps sums the work units over all tasks.
	TotalOps uint64
}

// ProgressEvent notifies observers after each completed round; the
// real-time tree viewer (paper §4) consumes the stream of best trees.
type ProgressEvent struct {
	Kind       RoundKind
	TaxaInTree int
	BestLnL    float64
	BestNewick string
}

// Search runs the fastDNAml algorithm against a Dispatcher.
type Search struct {
	cfg  Config
	disp Dispatcher

	// Progress, when non-nil, receives an event after every round.
	Progress func(ProgressEvent)

	// OnCheckpoint, when non-nil, receives a resumable Checkpoint after
	// every completed taxon addition and at the end of the search (the
	// restart-file mechanism of long fastDNAml runs).
	OnCheckpoint func(Checkpoint)

	// Stop, when non-nil, cancels the search when closed: the search
	// returns ErrStopped (wrapped) at the next round boundary instead of
	// dispatching more work. Positions already handed to OnCheckpoint
	// remain valid resume points.
	Stop <-chan struct{}

	nextTask  uint64
	nextRound uint64
	rounds    []RoundStats
	total     int
	totalOps  uint64
	// trace groups every task span of this search; tasks are its
	// children.
	trace obs.SpanContext
}

// NewSearch builds a search over a normalized configuration.
func NewSearch(cfg Config, disp Dispatcher) (*Search, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if disp == nil {
		return nil, fmt.Errorf("mlsearch: nil dispatcher")
	}
	return &Search{cfg: norm, disp: disp, trace: obs.NewTrace()}, nil
}

// Config returns the normalized configuration.
func (s *Search) Config() Config { return s.cfg }

// Run executes the full search: random order, initial triple, stepwise
// addition with local rearrangements, and the final rearrangement pass.
func (s *Search) Run() (*SearchResult, error) {
	order := TaxonOrder(len(s.cfg.Taxa), s.cfg.Seed)

	// Step 2: the unique 3-taxon tree, fully optimized.
	tr, err := tree.Triple(s.cfg.Taxa, order[0], order[1], order[2])
	if err != nil {
		return nil, err
	}
	cur, lnL, err := s.smoothRound(RoundInit, tr, 3)
	if err != nil {
		return nil, err
	}
	return s.run(order, cur, lnL, 3, false)
}

// run continues a search from "taxa order[:startIdx] are in tr". With
// finalOnly, only step 5 remains.
func (s *Search) run(order []int, tr *tree.Tree, lnL float64, startIdx int, finalOnly bool) (*SearchResult, error) {
	var err error
	extent := s.cfg.RearrangeExtent
	maxExtent := s.cfg.RearrangeExtent
	if s.cfg.FinalExtent > maxExtent {
		maxExtent = s.cfg.FinalExtent
	}
	if !finalOnly {
		// Step 3 + 4: add each remaining taxon, then locally rearrange.
		for i := startIdx; i < len(order); i++ {
			taxon := order[i]
			tr, lnL, err = s.addTaxon(tr, taxon, i+1)
			if err != nil {
				return nil, err
			}
			if extent > 0 && i+1 < len(order) {
				var improved int
				tr, lnL, improved, err = s.rearrangeToConvergence(RoundRearrange, tr, lnL, extent, i+1)
				if err != nil {
					return nil, err
				}
				if s.cfg.AdaptiveExtent {
					if improved > 0 && extent < maxExtent {
						extent++
					} else if improved == 0 && extent > 1 {
						extent--
					}
				}
			}
			phase := PhaseAdding
			if i+1 == len(order) {
				phase = PhaseFinal
			}
			s.checkpoint(order, i+1, phase, tr, lnL)
		}
	}

	// Step 5: final, possibly more extensive, rearrangement.
	if s.cfg.FinalExtent > 0 {
		tr, lnL, _, err = s.rearrangeToConvergence(RoundFinal, tr, lnL, s.cfg.FinalExtent, len(order))
		if err != nil {
			return nil, err
		}
	}
	s.checkpoint(order, len(order), PhaseDone, tr, lnL)

	res := &SearchResult{
		BestNewick: tr.Newick(),
		LnL:        lnL,
		Order:      order,
		Seed:       NormalizeSeed(s.cfg.Seed),
		TotalTasks: s.total,
		TotalOps:   s.totalOps,
	}
	if !s.cfg.DisableRoundLog {
		res.Rounds = s.rounds
	}
	return res, nil
}

// checkpoint emits a resumable position to the observer.
func (s *Search) checkpoint(order []int, nextIdx int, phase string, tr *tree.Tree, lnL float64) {
	if s.OnCheckpoint == nil {
		return
	}
	s.OnCheckpoint(Checkpoint{
		Seed:      s.cfg.Seed,
		Jumble:    s.cfg.Jumble,
		Order:     append([]int(nil), order...),
		NextIndex: nextIdx,
		Phase:     phase,
		Newick:    tr.Newick(),
		LnL:       lnL,
	})
}

// dispatchRound sends tasks, collects results, records statistics, and
// returns the results sorted by task ID (so ties resolve
// deterministically regardless of worker arrival order).
func (s *Search) dispatchRound(kind RoundKind, taxaInTree int, tasks []Task, genBytes uint64) ([]Result, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("mlsearch: empty %s round", kind)
	}
	select {
	case <-s.Stop:
		return nil, fmt.Errorf("mlsearch: %s round: %w", kind, ErrStopped)
	default:
	}
	results, err := s.disp.Dispatch(tasks)
	if err != nil {
		return nil, fmt.Errorf("mlsearch: %s round: %w", kind, err)
	}
	if len(results) != len(tasks) {
		return nil, fmt.Errorf("mlsearch: %s round returned %d results for %d tasks", kind, len(results), len(tasks))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].TaskID < results[j].TaskID })

	stats := RoundStats{Kind: kind, TaxaInTree: taxaInTree, GenBytes: genBytes}
	best := results[0]
	for _, r := range results {
		stats.Tasks = append(stats.Tasks, TaskStat{Ops: r.Ops, LnL: r.LnL, CacheHits: r.CacheHits, CacheMisses: r.CacheMisses, Elapsed: r.Eval})
		s.totalOps += r.Ops
		if r.LnL > best.LnL {
			best = r
		}
	}
	stats.BestLnL = best.LnL
	s.total += len(tasks)
	if !s.cfg.DisableRoundLog {
		s.rounds = append(s.rounds, stats)
	}
	return results, nil
}

// newTask allocates task identity, minting a child span of the search's
// trace so the task can be followed across process boundaries.
func (s *Search) newTask(newick string, localTaxon int, passes int) Task {
	s.nextTask++
	return Task{
		ID:         s.nextTask,
		Round:      s.nextRound,
		Trace:      s.trace.Child(),
		Newick:     newick,
		LocalTaxon: int32(localTaxon),
		Passes:     int32(passes),
		InsertEdge: -1,
		MoveP:      -1,
		MoveS:      -1,
		MoveTA:     -1,
		MoveTB:     -1,
	}
}

// bestOf picks the highest-likelihood result, lowest task ID on ties.
func bestOf(results []Result) Result {
	best := results[0]
	for _, r := range results[1:] {
		if r.LnL > best.LnL {
			best = r
		}
	}
	return best
}

// applyCandidate turns base — a parse of the round's base Newick, whose
// node IDs are therefore the evaluators' — into the candidate tree that
// task t and its result r describe: the task's insertion or SPR move,
// then every branch length the evaluation reported. The evaluator would
// have rendered exactly this tree, to the last digit: it made the same
// edit on its own parse of the same string, and r.Lens covers every
// branch it left different from what the edit alone produces.
func applyCandidate(base *tree.Tree, t Task, r Result) error {
	var junction, leaf *tree.Node
	if t.InsertEdge >= 0 {
		edges := base.InsertionEdges()
		if int(t.InsertEdge) >= len(edges) {
			return fmt.Errorf("mlsearch: task %d: insert edge %d of %d", t.ID, t.InsertEdge, len(edges))
		}
		var err error
		if leaf, err = base.InsertLeaf(int(t.LocalTaxon), edges[t.InsertEdge]); err != nil {
			return fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
		}
		junction = leaf.Nbr[0]
	} else if _, err := base.ApplySPR(tree.SPRMove{P: int(t.MoveP), S: int(t.MoveS), TA: int(t.MoveTA), TB: int(t.MoveTB)}); err != nil {
		return fmt.Errorf("mlsearch: task %d: %w", t.ID, err)
	}
	node := func(id int32) *tree.Node {
		switch {
		case id == NodeJunction:
			return junction
		case id == NodeNewLeaf:
			return leaf
		case id >= 0 && int(id) < len(base.Nodes):
			return base.Nodes[id]
		}
		return nil
	}
	for _, l := range r.Lens {
		a, b := node(l.A), node(l.B)
		if a == nil || b == nil || a.NbrIndex(b) < 0 {
			return fmt.Errorf("mlsearch: task %d: result sets the length of %d-%d, not a branch of the candidate", t.ID, l.A, l.B)
		}
		tree.SetLen(a, b, l.Len)
	}
	return nil
}

// adopt rebuilds the round's best candidate on base (see applyCandidate).
// tasks are the round's, in the ID order newTask gave them.
func adopt(base *tree.Tree, tasks []Task, best Result) error {
	i := best.TaskID - tasks[0].ID
	if i >= uint64(len(tasks)) {
		return fmt.Errorf("mlsearch: best result names task %d, not one of the round's", best.TaskID)
	}
	return applyCandidate(base, tasks[i], best)
}

// smoothRound dispatches one full-smoothing task for tr and parses the
// optimized tree back.
func (s *Search) smoothRound(kind RoundKind, tr *tree.Tree, taxaInTree int) (*tree.Tree, float64, error) {
	s.nextRound++
	nwk := tr.Newick()
	task := s.newTask(nwk, -1, s.cfg.FullSmoothPasses)
	results, err := s.dispatchRound(kind, taxaInTree, []Task{task}, uint64(len(nwk)))
	if err != nil {
		return nil, 0, err
	}
	out, err := tree.ParseNewick(results[0].Newick, s.cfg.Taxa)
	if err != nil {
		return nil, 0, err
	}
	// A smooth round always adopts its tree: notify observers. The
	// real-time viewer of §4 monitors exactly this stream of best trees.
	if s.Progress != nil {
		s.Progress(ProgressEvent{Kind: kind, TaxaInTree: taxaInTree, BestLnL: results[0].LnL, BestNewick: results[0].Newick})
	}
	return out, results[0].LnL, nil
}

// addTaxon performs step 3: dispatch one shared-base task per insertion
// edge, adopt the best, then fully smooth it. The master serializes the
// base tree once; each task carries only an edge index, the workers
// score every candidate against their cached copy of the same base, and
// only the winner is built — here, from its three junction lengths.
func (s *Search) addTaxon(tr *tree.Tree, taxon, taxaAfter int) (*tree.Tree, float64, error) {
	s.nextRound++
	nwk := tr.Newick()
	// Enumerate edges on a reparse of the serialized base so the edge
	// indices agree with what workers see when they parse BaseNewick.
	base, err := tree.ParseNewick(nwk, s.cfg.Taxa)
	if err != nil {
		return nil, 0, err
	}
	edges := base.InsertionEdges()
	tasks := make([]Task, 0, len(edges))
	genBytes := uint64(len(nwk))
	for k := range edges {
		task := s.newTask("", taxon, s.cfg.QuickInsertPasses)
		task.BaseNewick = nwk
		task.InsertEdge = int32(k)
		tasks = append(tasks, task)
		genBytes += taskOverheadBytes
	}
	results, err := s.dispatchRound(RoundAdd, taxaAfter, tasks, genBytes)
	if err != nil {
		return nil, 0, err
	}
	if err := adopt(base, tasks, bestOf(results)); err != nil {
		return nil, 0, err
	}
	// The rapid insertion estimate is refined by full smoothing (§2.1).
	return s.smoothRound(RoundSmooth, base, taxaAfter)
}

// rearrangeToConvergence performs steps 4/5: dispatch every distinct
// rearrangement within extent, adopt the best if it improves, and repeat
// until no improvement (paper: "This process continues until the
// rearrangements no longer result in improvement"). It reports how many
// rounds improved the tree (the adaptive-extent signal).
func (s *Search) rearrangeToConvergence(kind RoundKind, tr *tree.Tree, lnL float64, extent, taxaInTree int) (*tree.Tree, float64, int, error) {
	improved := 0
	for round := 0; round < s.cfg.MaxRearrangeRounds; round++ {
		s.nextRound++
		nwk := tr.Newick()
		// Enumerate moves on a reparse of the serialized base so the
		// node IDs in each move agree with the workers' parse of
		// BaseNewick (shared-base evaluation, one Newick per round).
		base, err := tree.ParseNewick(nwk, s.cfg.Taxa)
		if err != nil {
			return nil, 0, improved, err
		}
		var tasks []Task
		genBytes := uint64(len(nwk))
		_, err = base.Rearrangements(extent, func(view *tree.Tree, cand tree.RearrangeCandidate) bool {
			mv := cand.Move()
			task := s.newTask("", -1, s.cfg.QuickInsertPasses)
			task.BaseNewick = nwk
			task.MoveP = int32(mv.P)
			task.MoveS = int32(mv.S)
			task.MoveTA = int32(mv.TA)
			task.MoveTB = int32(mv.TB)
			tasks = append(tasks, task)
			genBytes += taskOverheadBytes
			return true
		})
		if err != nil {
			return nil, 0, improved, err
		}
		if len(tasks) == 0 {
			return tr, lnL, improved, nil
		}
		results, err := s.dispatchRound(kind, taxaInTree, tasks, genBytes)
		if err != nil {
			return nil, 0, improved, err
		}
		best := bestOf(results)
		if best.LnL <= lnL+s.cfg.Epsilon {
			return tr, lnL, improved, nil
		}
		improved++
		if err := adopt(base, tasks, best); err != nil {
			return nil, 0, improved, err
		}
		tr, lnL, err = s.smoothRound(RoundSmooth, base, taxaInTree)
		if err != nil {
			return nil, 0, improved, err
		}
	}
	return tr, lnL, improved, nil
}
