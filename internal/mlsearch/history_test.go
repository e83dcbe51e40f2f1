package mlsearch

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// TestEvaluateIndependentOfTaskHistory pins the determinism guarantee the
// parallel runtime relies on: a task's result must be bit-identical no
// matter which tasks the evaluator (worker) processed before it. The
// shared-base rearrangement path applies and undoes SPR moves on a cached
// base tree, which permutes neighbor orderings; the likelihood engine
// must therefore never key floating-point evaluation order to Nbr order.
func TestEvaluateIndependentOfTaskHistory(t *testing.T) {
	cfg := testConfig(t, 10, 400, 21)

	// A smoothed base over all taxa, serialized the way search rounds do.
	eng, err := likelihood.New(cfg.Model, cfg.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	base, err := tree.RandomTree(cfg.Taxa, rand.New(rand.NewSource(5)), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OptimizeBranches(base, likelihood.OptOptions{Passes: 2}); err != nil {
		t.Fatal(err)
	}
	nwk := base.Newick()

	parsed, err := tree.ParseNewick(nwk, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []Task
	if _, err := parsed.Rearrangements(2, func(_ *tree.Tree, cand tree.RearrangeCandidate) bool {
		mv := cand.Move()
		tasks = append(tasks, Task{
			ID: uint64(len(tasks) + 1), Round: 1, BaseNewick: nwk, LocalTaxon: -1,
			Passes: 2, InsertEdge: -1,
			MoveP: int32(mv.P), MoveS: int32(mv.S), MoveTA: int32(mv.TA), MoveTB: int32(mv.TB),
		})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(tasks) < 8 {
		t.Fatalf("want a meaningful batch, got %d tasks", len(tasks))
	}

	run := func(order []int) map[uint64]Result {
		e2, err := likelihood.New(cfg.Model, cfg.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(e2, cfg.Taxa)
		out := make(map[uint64]Result, len(order))
		for _, i := range order {
			res, err := ev.Evaluate(tasks[i])
			if err != nil {
				t.Fatalf("task %d: %v", tasks[i].ID, err)
			}
			out[res.TaskID] = res
		}
		return out
	}

	fwd := make([]int, len(tasks))
	rev := make([]int, len(tasks))
	for i := range tasks {
		fwd[i] = i
		rev[i] = len(tasks) - 1 - i
	}
	a, b := run(fwd), run(rev)
	for id, ra := range a {
		rb := b[id]
		if !reflect.DeepEqual(branchLens(ra.Lens), branchLens(rb.Lens)) || ra.LnL != rb.LnL {
			t.Errorf("task %d depends on evaluation history:\n fwd lnL=%.15f %v\n rev lnL=%.15f %v",
				id, ra.LnL, ra.Lens, rb.LnL, rb.Lens)
		}
	}
}

// branchLens keys a result's lengths by branch, whichever way round the
// evaluator happened to name its endpoints.
func branchLens(lens []EdgeLen) map[[2]int32]float64 {
	out := make(map[[2]int32]float64, len(lens))
	for _, l := range lens {
		out[[2]int32{min(l.A, l.B), max(l.A, l.B)}] = l.Len
	}
	return out
}
