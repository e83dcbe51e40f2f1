package mlsearch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/likelihood"
	"repro/internal/tree"
)

// refEvalInsert is evalInsert's body from when a candidate's result was
// its rendered tree: score, then clone the base, insert the leaf, install
// the three lengths and format. Kept as the reference applyCandidate must
// reproduce byte for byte.
func refEvalInsert(ev *Evaluator, t Task) (string, float64, error) {
	if err := ev.ensureBase(t.BaseNewick); err != nil {
		return "", 0, err
	}
	ev.baseEdges = ev.base.Edges()
	if ev.scorer == nil || ev.scorerTaxon != t.LocalTaxon {
		sc, err := ev.eng.NewInsertScorer(ev.base, int(t.LocalTaxon))
		if err != nil {
			return "", 0, err
		}
		ev.scorer = sc
		ev.scorerTaxon = t.LocalTaxon
	}
	ed := ev.baseEdges[t.InsertEdge]
	score, err := ev.scorer.Score(ed, int(t.Passes))
	if err != nil {
		return "", 0, err
	}
	cand := ev.base.Clone()
	ca, cb := cand.Nodes[ed.A.ID], cand.Nodes[ed.B.ID]
	leaf, err := cand.InsertLeaf(int(t.LocalTaxon), tree.Edge{A: ca, B: cb})
	if err != nil {
		return "", 0, err
	}
	mid := leaf.Nbr[0]
	tree.SetLen(ca, mid, score.LenA)
	tree.SetLen(mid, cb, score.LenB)
	tree.SetLen(mid, leaf, score.LenLeaf)
	return cand.Newick(), score.LnL, nil
}

// refEvalMove is evalMove's body from the same time: apply, optimize,
// format the whole tree, undo, restore.
func refEvalMove(ev *Evaluator, t Task) (string, float64, error) {
	if err := ev.ensureBase(t.BaseNewick); err != nil {
		return "", 0, err
	}
	mv := tree.SPRMove{P: int(t.MoveP), S: int(t.MoveS), TA: int(t.MoveTA), TB: int(t.MoveTB)}
	undo, err := ev.base.ApplySPR(mv)
	if err != nil {
		return "", 0, err
	}
	opt := likelihood.OptOptions{
		Passes:  int(t.Passes),
		Centers: []*tree.Node{undo.Mid, undo.Joined.A, undo.Joined.B},
		Radius:  2,
	}
	lnL, optErr := ev.eng.OptimizeBranches(ev.base, opt)
	var nwk string
	if optErr == nil {
		nwk = ev.base.Newick()
	}
	undo.Undo()
	ev.restoreBaseLens()
	return nwk, lnL, optErr
}

// moveTasks enumerates base's rearrangements within extent as shared-base
// tasks of one round, IDs from firstID up.
func moveTasks(t *testing.T, taxa []string, baseNwk string, extent int, job, round, firstID uint64) []Task {
	t.Helper()
	base, err := tree.ParseNewick(baseNwk, taxa)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []Task
	if _, err := base.Rearrangements(extent, func(_ *tree.Tree, c tree.RearrangeCandidate) bool {
		mv := c.Move()
		tasks = append(tasks, Task{
			ID: firstID + uint64(len(tasks)), Round: round, Job: job, BaseNewick: baseNwk, LocalTaxon: -1, Passes: 2,
			InsertEdge: -1, MoveP: int32(mv.P), MoveS: int32(mv.S), MoveTA: int32(mv.TA), MoveTB: int32(mv.TB),
		})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return tasks
}

// TestRebuiltCandidateMatchesRenderedTree: for random bases, every
// insertion edge and every extent-2 move, the tree the master rebuilds
// from (Task, Result) formats to the byte-identical Newick() the
// evaluator used to render and ship, with the same log-likelihood — the
// argument for the search's results not moving by a bit. Along the way:
// ApplySPR gives the regraft junction the dissolved node's ID whether the
// copy of the base is fresh or has been through hundreds of apply/undo
// cycles, which is what lets a result name branches by node ID.
func TestRebuiltCandidateMatchesRenderedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 4; trial++ {
		n := 7 + 3*trial
		cfg := testConfig(t, n, 100, int64(40+trial))
		norm, err := cfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewConfigEvaluator(norm)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		ev, err := NewConfigEvaluator(norm)
		if err != nil {
			t.Fatal(err)
		}
		defer ev.Close()
		full, err := tree.RandomTree(norm.Taxa, rng, 0.1)
		if err != nil {
			t.Fatal(err)
		}

		check := func(kind string, task Task, want string, wantLnL float64) {
			t.Helper()
			res, err := ev.Evaluate(task)
			if err != nil {
				t.Fatalf("%d taxa %s task %d: %v", n, kind, task.ID, err)
			}
			if len(res.Lens) == 0 {
				t.Fatalf("%d taxa %s task %d: result carries no lengths", n, kind, task.ID)
			}
			base, err := tree.ParseNewick(task.BaseNewick, norm.Taxa)
			if err != nil {
				t.Fatal(err)
			}
			if err := applyCandidate(base, task, res); err != nil {
				t.Fatalf("%d taxa %s task %d: %v", n, kind, task.ID, err)
			}
			if got := base.Newick(); got != want {
				t.Fatalf("%d taxa %s task %d: rebuilt tree differs from the rendered one:\n got %s\nwant %s", n, kind, task.ID, got, want)
			}
			if math.Float64bits(res.LnL) != math.Float64bits(wantLnL) {
				t.Fatalf("%d taxa %s task %d: lnL %.17g, reference %.17g", n, kind, task.ID, res.LnL, wantLnL)
			}
		}

		// Rearrangements of the full tree. The evaluator's own base goes
		// through one apply/undo cycle per task.
		baseNwk := full.Newick()
		moves := moveTasks(t, norm.Taxa, baseNwk, 2, 0, 1, 1)
		if len(moves) < 2*n-6 {
			t.Fatalf("%d taxa: only %d extent-2 moves", n, len(moves))
		}
		for _, task := range moves {
			want, wantLnL, err := refEvalMove(ref, task)
			if err != nil {
				t.Fatal(err)
			}
			check("move", task, want, wantLnL)
			fresh, err := tree.ParseNewick(baseNwk, norm.Taxa)
			if err != nil {
				t.Fatal(err)
			}
			for _, copyOf := range []*tree.Tree{fresh, ev.base} {
				undo, err := copyOf.ApplySPR(tree.SPRMove{P: int(task.MoveP), S: int(task.MoveS), TA: int(task.MoveTA), TB: int(task.MoveTB)})
				if err != nil {
					t.Fatal(err)
				}
				if undo.Mid.ID != int(task.MoveP) {
					t.Fatalf("%d taxa move %d: regraft junction has ID %d, the dissolved node had %d", n, task.ID, undo.Mid.ID, task.MoveP)
				}
				undo.Undo()
			}
		}

		// Insertions of the last taxon into the tree without it — on the
		// same evaluator, so after a round of moves (stale edge list).
		taxon := n - 1
		if err := full.RemoveLeaf(taxon); err != nil {
			t.Fatal(err)
		}
		baseNwk = full.Newick()
		for k := range full.InsertionEdges() {
			task := Task{ID: uint64(1000 + k), Round: 2, BaseNewick: baseNwk, LocalTaxon: int32(taxon), Passes: 2,
				InsertEdge: int32(k), MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1}
			want, wantLnL, err := refEvalInsert(ref, task)
			if err != nil {
				t.Fatal(err)
			}
			check("insert", task, want, wantLnL)
		}
	}
}

// TestEmptyEditMatchesFreshEvaluator: the smoothing task — the empty
// edit of base B — on an evaluator that has scored insertions and moves
// on B returns the lengths and lnL bits a fresh evaluator returns, and
// the master's rebuild of it renders what smoothing a parse of B renders.
// An insertion on B afterwards still matches a fresh evaluator, which it
// would not had the smoothing kept the base whose lengths it moved.
func TestEmptyEditMatchesFreshEvaluator(t *testing.T) {
	cfg := testConfig(t, 9, 150, 44)
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	full, err := tree.RandomTree(norm.Taxa, rand.New(rand.NewSource(44)), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const taxon = 8
	if err := full.RemoveLeaf(taxon); err != nil {
		t.Fatal(err)
	}
	base := full.Newick()
	newEvaluator := func() *Evaluator {
		ev, err := NewConfigEvaluator(norm)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ev.Close)
		return ev
	}
	evaluate := func(ev *Evaluator, task Task) Result {
		res, err := ev.Evaluate(task)
		if err != nil {
			t.Fatalf("task %d: %v", task.ID, err)
		}
		return res
	}
	same := func(what string, got, want Result) {
		t.Helper()
		if math.Float64bits(got.LnL) != math.Float64bits(want.LnL) || !reflect.DeepEqual(got.Lens, want.Lens) {
			t.Errorf("%s on a used evaluator: lnL %.17g %v, fresh %.17g %v", what, got.LnL, got.Lens, want.LnL, want.Lens)
		}
	}
	insert := Task{ID: 2, Round: 4, BaseNewick: base, LocalTaxon: taxon, Passes: quickInsertPasses,
		InsertEdge: 3, MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1}

	used := newEvaluator()
	for k := range full.InsertionEdges() {
		task := insert
		task.ID, task.Round, task.InsertEdge = uint64(100+k), 1, int32(k)
		evaluate(used, task)
	}
	for _, task := range moveTasks(t, norm.Taxa, base, 2, 0, 2, 200) {
		evaluate(used, task)
	}
	smooth := Task{ID: 1, Round: 3, BaseNewick: base, LocalTaxon: -1, Passes: fullSmoothPasses,
		InsertEdge: -1, MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1}
	got := evaluate(used, smooth)
	same("the empty edit", got, evaluate(newEvaluator(), smooth))

	rebuilt, err := tree.ParseNewick(base, norm.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyCandidate(rebuilt, smooth, got); err != nil {
		t.Fatal(err)
	}
	rendered, err := tree.ParseNewick(base, norm.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newEvaluator().eng.OptimizeBranches(rendered, likelihood.OptOptions{Passes: fullSmoothPasses}); err != nil {
		t.Fatal(err)
	}
	if rebuilt.Newick() != rendered.Newick() {
		t.Errorf("rebuilt smoothed tree\n%s\nrenders unlike the smoothed parse\n%s", rebuilt.Newick(), rendered.Newick())
	}

	same("an insertion after the empty edit", evaluate(used, insert), evaluate(newEvaluator(), insert))
}

// TestApplyCandidateRejectsForeignLengths: a result naming a branch the
// candidate does not have is an error, not a panic in tree.SetLen.
func TestApplyCandidateRejectsForeignLengths(t *testing.T) {
	taxa := []string{"a", "b", "c", "d", "e"}
	nwk := "(a:0.1,b:0.2,(c:0.3,(d:0.1,e:0.1):0.2):0.5);"
	task := Task{ID: 1, BaseNewick: nwk, LocalTaxon: -1, InsertEdge: -1}
	for _, l := range []EdgeLen{{A: 0, B: 99, Len: 1}, {A: -7, B: 1, Len: 1}, {A: NodeJunction, B: 1, Len: 1}} {
		base, err := tree.ParseNewick(nwk, taxa)
		if err != nil {
			t.Fatal(err)
		}
		var mv tree.SPRMove
		if _, err := base.Rearrangements(1, func(_ *tree.Tree, c tree.RearrangeCandidate) bool { mv = c.Move(); return false }); err != nil {
			t.Fatal(err)
		}
		task.MoveP, task.MoveS, task.MoveTA, task.MoveTB = int32(mv.P), int32(mv.S), int32(mv.TA), int32(mv.TB)
		if err := applyCandidate(base, task, Result{TaskID: 1, Lens: []EdgeLen{l}}); err == nil {
			t.Errorf("length for branch %d-%d accepted", l.A, l.B)
		}
	}
}

// TestSliceCutsFollowGuidedRule: whatever is queued and however many
// workers are live, successive slices of a job are max(1, ⌈queued/(2 ×
// live)⌉) candidates off the head of its queue, a slice never mixes jobs
// or base trees, and jobs take turns.
func TestSliceCutsFollowGuidedRule(t *testing.T) {
	for _, queued := range []int{1, 2, 3, 7, 8, 29, 59, 240} {
		for _, live := range []int{1, 2, 3, 7, 64} {
			f := &Foreman{jobs: map[uint64]*jobState{}}
			f.startTestJob(1, sliceOf(queued, 1, 1, "(a,b,c);"))
			left := queued
			for left > 0 {
				js, slice := f.nextSlice(live)
				want := (left + 2*live - 1) / (2 * live)
				if js == nil || len(slice) != want {
					t.Fatalf("queued %d of %d, %d live: slice of %d, want %d", left, queued, live, len(slice), want)
				}
				left -= len(slice)
			}
			if js, _ := f.nextSlice(live); js != nil {
				t.Fatalf("queued %d, %d live: a slice beyond the queue", queued, live)
			}
		}
	}

	// Two jobs; the first one's round switches base half way and ends in
	// two empty edits of a third base.
	f := &Foreman{jobs: map[uint64]*jobState{}}
	mixed := append(sliceOf(10, 1, 1, "(a,b,c);"), sliceOf(10, 1, 1, "(a,c,b);")...)
	for i := range mixed {
		mixed[i].ID = uint64(i + 1)
	}
	smooth := Task{Job: 1, Round: 1, BaseNewick: "(b,a,c);", LocalTaxon: -1, InsertEdge: -1, MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1}
	for _, id := range []uint64{21, 22} {
		smooth.ID = id
		mixed = append(mixed, smooth)
	}
	f.startTestJob(1, mixed)
	f.startTestJob(2, sliceOf(6, 2, 1, "(a,b,c);"))
	var turns []uint64
	taken := map[uint64]int{}
	for {
		js, slice := f.nextSlice(2)
		if js == nil {
			break
		}
		turns = append(turns, js.id)
		for _, task := range slice {
			if task.Job != js.id || task.BaseNewick != slice[0].BaseNewick {
				t.Fatalf("slice %+v mixes jobs or bases", slice)
			}
			if task.ID != uint64(taken[js.id]+1) && js.id == 1 {
				t.Fatalf("job 1 candidate %d taken out of order (after %d)", task.ID, taken[js.id])
			}
			taken[js.id]++
		}
	}
	if taken[1] != 22 || taken[2] != 6 {
		t.Fatalf("cut %d and %d candidates, want 22 and 6", taken[1], taken[2])
	}
	if got := fmt.Sprint(turns[:6]); got != "[1 2 1 2 1 2]" {
		t.Errorf("jobs did not take turns: %v", turns)
	}
}

// startTestJob opens a round on a hand-built foreman and returns the
// channel its answer goes to.
func (f *Foreman) startTestJob(job uint64, tasks []Task) chan roundReply {
	reply := make(chan roundReply, 1)
	f.startJob(&submission{job: job, round: 1, tasks: tasks, reply: reply})
	return reply
}

// scriptedWorker serves rank's end of a hand-built world: every slice it
// receives goes to answer, whose results (if any) are sent back as one
// reply; answer returning stop ends the worker without a reply, as a
// crash would. It acknowledges shutdown like a real worker.
func scriptedWorker(t *testing.T, c comm.Communicator, foremanRank int, answer func(slice []Task) (reply []Result, stop bool)) {
	for {
		msg, err := c.Recv(comm.AnySource, comm.AnyTag)
		if err != nil {
			return
		}
		if msg.Tag == comm.TagShutdown {
			_ = c.Send(foremanRank, comm.TagShutdown, nil)
			return
		}
		slice, err := unmarshalTasks(msg.Data)
		if err != nil {
			t.Error(err)
			return
		}
		reply, stop := answer(slice)
		if stop {
			return
		}
		if len(reply) > 0 {
			if err := c.Send(foremanRank, comm.TagResult, marshalResults(reply)); err != nil {
				return
			}
		}
	}
}

// cannedResults answers tasks without evaluating them.
func cannedResults(tasks []Task) []Result {
	out := make([]Result, len(tasks))
	for i, task := range tasks {
		out[i] = Result{TaskID: task.ID, Round: task.Round, Job: task.Job, LnL: -float64(task.ID), Ops: 1}
	}
	return out
}

func taskIDs(tasks []Task) []uint64 {
	ids := make([]uint64, len(tasks))
	for i, task := range tasks {
		ids[i] = task.ID
	}
	return ids
}

// TestRoundWithUnindexableIDsIsRefused: the foreman files results by
// TaskID − first ID, so a round whose IDs have a gap, or start at 0, is
// answered with an error instead of waiting for a result no slot can
// take; the foreman then serves the lane's next round, in task order.
func TestRoundWithUnindexableIDsIsRefused(t *testing.T) {
	world := newTestWorld(t, 3)
	lay := Layout{Workers: []int{2}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scriptedWorker(t, world[2], 1, func(slice []Task) ([]Result, bool) { return cannedResults(slice), false })
	}()
	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{}, nil)
	gap := sliceOf(4, 0, 1, "(a,b,c);")
	gap[2].ID += 5
	zero := sliceOf(2, 0, 2, "(a,b,c);")
	zero[0].ID, zero[1].ID = 0, 1
	for _, bad := range [][]Task{gap, zero} {
		if o := awaitDispatch(t, "unindexable round", dispatchAsync(disp, bad)); o.err == nil || !strings.Contains(o.err.Error(), "consecutive") {
			t.Errorf("round of IDs %v answered with %d results and error %v", taskIDs(bad), len(o.results), o.err)
		}
	}
	tasks := sliceOf(5, 0, 3, "(a,b,c);")
	o := awaitDispatch(t, "next round", dispatchAsync(disp, tasks))
	if o.err != nil || len(o.results) != len(tasks) {
		t.Fatalf("next round: %d results, error %v", len(o.results), o.err)
	}
	for i, r := range o.results {
		if r.TaskID != tasks[i].ID {
			t.Errorf("result %d is task %d's, want task %d's", i, r.TaskID, tasks[i].ID)
		}
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestPartialReplyRequeuesExactlyTheMissing: a worker that answers only
// part of a slice (its BeforeReply dropped the rest) is sent exactly the
// candidates it left out, at once — no timeout is configured — and the
// round completes with one result per task.
func TestPartialReplyRequeuesExactlyTheMissing(t *testing.T) {
	world := newTestWorld(t, 3)
	lay := Layout{Workers: []int{2}}
	var wg sync.WaitGroup
	wg.Add(1)
	var seen [][]uint64
	go func() {
		defer wg.Done()
		scriptedWorker(t, world[2], 1, func(slice []Task) ([]Result, bool) {
			seen = append(seen, taskIDs(slice))
			if len(seen) == 1 {
				// Keep the odd positions of the first slice only.
				var kept []Task
				for i, task := range slice {
					if i%2 == 1 {
						kept = append(kept, task)
					}
				}
				return cannedResults(kept), false
			}
			return cannedResults(slice), false
		})
	}()

	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{Pipeline: 1}, nil)
	tasks := sliceOf(12, 0, 1, "(a,b,c);")
	results, err := disp.Dispatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(results) != len(tasks) {
		t.Fatalf("%d results for %d tasks", len(results), len(tasks))
	}
	// One worker, pipeline 1: the first slice is ⌈12/2⌉ = 6 candidates,
	// of which positions 0, 2, 4 went unanswered and must head the queue.
	if len(seen) < 2 || len(seen[0]) != 6 {
		t.Fatalf("slices seen: %v", seen)
	}
	first := seen[0]
	wantNext := []uint64{first[0], first[2], first[4]}
	if got := seen[1]; len(got) < 3 || fmt.Sprint(got[:3]) != fmt.Sprint(wantNext) {
		t.Errorf("after a partial reply to %v the next slice is %v, want it to start with %v", first, got, wantNext)
	}
	count := map[uint64]int{}
	for _, ids := range seen {
		for _, id := range ids {
			count[id]++
		}
	}
	for _, task := range tasks {
		want := 1
		if task.ID == first[0] || task.ID == first[2] || task.ID == first[4] {
			want = 2
		}
		if count[task.ID] != want {
			t.Errorf("candidate %d dispatched %d times, want %d", task.ID, count[task.ID], want)
		}
	}
}

// TestSeveredMidSliceAndJoinMidRound: a worker that dies holding a slice
// has all of it requeued at the head of the queue for the survivor, and a
// worker that joins while the round is open is cut the next slice.
func TestSeveredMidSliceAndJoinMidRound(t *testing.T) {
	// Ranks: 0 master, 1 foreman, 2 the worker that dies, 3 the survivor,
	// 4 the late joiner.
	world := newTestWorld(t, 5)
	lay := Layout{Workers: []int{2, 3}}
	var wg sync.WaitGroup

	var mu sync.Mutex
	served := map[int][]uint64{}
	note := func(rank int, slice []Task) {
		mu.Lock()
		served[rank] = append(served[rank], taskIDs(slice)...)
		mu.Unlock()
	}
	var lost []uint64
	died := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		scriptedWorker(t, world[2], 1, func(slice []Task) ([]Result, bool) {
			lost = taskIDs(slice)
			// The transport's announcement of a dropped connection.
			if err := world[2].Send(1, comm.TagLeave, nil); err != nil {
				t.Error(err)
			}
			close(died)
			return nil, true
		})
	}()
	go func() {
		defer wg.Done()
		first := true
		scriptedWorker(t, world[3], 1, func(slice []Task) ([]Result, bool) {
			if first {
				// Hold the first slice until rank 2 is gone and rank 4
				// has announced itself, so both find work left.
				first = false
				<-died
				if err := world[4].Send(1, comm.TagJoin, nil); err != nil {
					t.Error(err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			note(3, slice)
			return cannedResults(slice), false
		})
	}()
	go func() {
		defer wg.Done()
		scriptedWorker(t, world[4], 1, func(slice []Task) ([]Result, bool) {
			note(4, slice)
			return cannedResults(slice), false
		})
	}()

	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{Pipeline: 1}, nil)
	tasks := sliceOf(40, 0, 1, "(a,b,c);")
	results, err := disp.Dispatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(results) != len(tasks) {
		t.Fatalf("%d results for %d tasks", len(results), len(tasks))
	}
	// Two workers: the first slice, rank 2's, is ⌈40/4⌉ = 10 candidates.
	if len(lost) != 10 {
		t.Fatalf("the dying worker held %v", lost)
	}
	all := append(append([]uint64(nil), served[3]...), served[4]...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if fmt.Sprint(all) != fmt.Sprint(taskIDs(tasks)) {
		t.Errorf("survivor and joiner served %v, want every candidate once", all)
	}
	if len(served[4]) == 0 {
		t.Error("the worker that joined mid-round was never cut a slice")
	}
	// Requeued at the head: with rank 3 still holding its first slice, the
	// joiner's first cut — ⌈(10 lost + 22 queued)/4⌉ = 8 — is the head of
	// what the dead worker held.
	if len(served[4]) < 8 || fmt.Sprint(served[4][:8]) != fmt.Sprint(lost[:8]) {
		t.Errorf("the joiner was served %v, want it to start with the lost slice's head %v", served[4], lost[:8])
	}
}

// TestBadCandidateFailsItsRoundNotTheFleet: a move naming a dead node ID
// fails wherever it is evaluated. Its worker reports the error and keeps
// serving; the foreman closes that job's round with the cause, which
// Dispatch returns; a second job sharing the two workers, and the failed
// lane's own next round, are unaffected.
func TestBadCandidateFailsItsRoundNotTheFleet(t *testing.T) {
	cfg := testConfig(t, 9, 120, 5)
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	full, err := tree.RandomTree(norm.Taxa, rand.New(rand.NewSource(5)), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	baseNwk := full.Newick()

	world := newTestWorld(t, 4)
	lay := Layout{Workers: []int{2, 3}}
	var wg sync.WaitGroup
	workerErrs := make(chan error, len(lay.Workers))
	for _, rank := range lay.Workers {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			workerErrs <- RunWorker(world[rank], norm, WorkerHooks{})
		}(rank)
	}
	foreman, bad := newTestMaster(t, world, lay, ForemanOptions{TaskTimeout: 2 * time.Second}, nil)
	good, err := foreman.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}

	poisoned := moveTasks(t, norm.Taxa, baseNwk, 1, 0, 1, 1)
	poisoned[len(poisoned)/2].MoveS = 9999
	badCh := dispatchAsync(bad, poisoned)
	goodCh := dispatchAsync(good, moveTasks(t, norm.Taxa, baseNwk, 2, 0, 1, 1))
	if o := awaitDispatch(t, "failing round", badCh); o.err == nil || !strings.Contains(o.err.Error(), "dead node 9999") {
		t.Errorf("the poisoned round returned %d results and error %v, want the evaluation's cause", len(o.results), o.err)
	}
	if o := awaitDispatch(t, "neighbouring job", goodCh); o.err != nil {
		t.Errorf("the job sharing the workers failed too: %v", o.err)
	}
	healthy := moveTasks(t, norm.Taxa, baseNwk, 1, 0, 2, 100)
	if o := awaitDispatch(t, "next round of the failed lane", dispatchAsync(bad, healthy)); o.err != nil || len(o.results) != len(healthy) {
		t.Errorf("the failed lane's next round: %d results, error %v", len(o.results), o.err)
	}
	select {
	case err := <-workerErrs:
		t.Errorf("a worker exited before shutdown: %v", err)
	default:
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for range lay.Workers {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestSliceOutlivingFailedRoundIsIgnored: a failed round is answered
// while other slices of it are still out. When such a slice is answered
// after its lane has opened the next round — here with the same task IDs
// — its results must not be taken for the new round's and its unanswered
// candidates must not be requeued into it.
func TestSliceOutlivingFailedRoundIsIgnored(t *testing.T) {
	world := newTestWorld(t, 4)
	lay := Layout{Workers: []int{2, 3}}
	var wg sync.WaitGroup
	wg.Add(2)
	release := make(chan struct{})
	var mu sync.Mutex
	dispatched := map[uint64]int{} // round-2 dispatches by task ID
	serve := func(slice []Task) []Result {
		mu.Lock()
		for _, task := range slice {
			dispatched[task.ID]++
		}
		mu.Unlock()
		out := cannedResults(slice)
		for i := range out {
			out[i].LnL = -2000 - float64(out[i].TaskID)
		}
		return out
	}
	go func() { // rank 2: holds its round-1 slice until round 2 is open
		defer wg.Done()
		scriptedWorker(t, world[2], 1, func(slice []Task) ([]Result, bool) {
			if slice[0].Round == 1 {
				<-release
				return cannedResults(slice[:1]), false // and drops the rest
			}
			return serve(slice), false
		})
	}()
	go func() { // rank 3: fails round 1
		defer wg.Done()
		first := true
		scriptedWorker(t, world[3], 1, func(slice []Task) ([]Result, bool) {
			if slice[0].Round == 1 {
				return []Result{failedResult(slice[0], fmt.Errorf("poisoned"))}, false
			}
			if first {
				// Round 2 is open and this slice — the same task IDs rank
				// 2 still holds from round 1 — is out: let rank 2 answer,
				// and give the foreman time to hear it first.
				first = false
				close(release)
				time.Sleep(30 * time.Millisecond)
			}
			return serve(slice), false
		})
	}()

	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{Pipeline: 1}, nil)
	if _, err := disp.Dispatch(sliceOf(8, 0, 1, "(a,b,c);")); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("round 1: %v, want the poisoned candidate's error", err)
	}
	results, err := disp.Dispatch(sliceOf(8, 0, 2, "(a,b,c);"))
	if err != nil {
		t.Fatal(err)
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(results) != 8 {
		t.Fatalf("round 2 returned %d results", len(results))
	}
	for _, r := range results {
		if r.Round != 2 || r.LnL != -2000-float64(r.TaskID) {
			t.Errorf("round 2 task %d answered by %+v", r.TaskID, r)
		}
		if dispatched[r.TaskID] != 1 {
			t.Errorf("round 2 task %d dispatched %d times", r.TaskID, dispatched[r.TaskID])
		}
	}
}
