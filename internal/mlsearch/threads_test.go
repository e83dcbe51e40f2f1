package mlsearch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/tree"
)

// newThreadedEvaluator builds an evaluator whose engine runs n kernel
// threads.
func newThreadedEvaluator(t *testing.T, cfg Config, n int) (*Evaluator, *likelihood.CachedEngine) {
	t.Helper()
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.New(norm.Model, norm.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	if n > 1 {
		eng.SetThreads(n)
	}
	return NewEvaluator(eng, norm.Taxa), eng
}

// TestThreadedAddRoundBitIdentical: one full add round of the 41-taxon
// fixture — a shared-base smooth task plus an insertion-score task per
// insertion edge — must return bit-identical log-likelihoods and trees
// at every engine thread count. This is the determinism contract the
// paper's work distribution relies on (a tree's likelihood must not
// depend on which process, or how many threads, computed it).
func TestThreadedAddRoundBitIdentical(t *testing.T) {
	cfg := testConfig(t, 41, 3000, 3)
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	full, err := tree.RandomTree(norm.Taxa, rng, 0.12)
	if err != nil {
		t.Fatal(err)
	}
	const addTaxon = 40
	if err := full.RemoveLeaf(addTaxon); err != nil {
		t.Fatal(err)
	}
	base := full.Newick()
	nEdges := len(full.InsertionEdges())
	if nEdges < 20 {
		t.Fatalf("only %d insertion edges", nEdges)
	}

	tasks := []Task{{ID: 0, Round: 1, BaseNewick: base, LocalTaxon: -1, Passes: 2, InsertEdge: -1, MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1}}
	for i := 0; i < nEdges; i++ {
		tasks = append(tasks, Task{
			ID: uint64(i + 1), Round: 1, BaseNewick: base,
			LocalTaxon: addTaxon, InsertEdge: int32(i), Passes: 2,
		})
	}

	evaluate := func(threads int) []Result {
		ev, eng := newThreadedEvaluator(t, cfg, threads)
		defer eng.Close()
		out := make([]Result, 0, len(tasks))
		for _, task := range tasks {
			r, err := ev.Evaluate(task)
			if err != nil {
				t.Fatalf("threads=%d task %d: %v", threads, task.ID, err)
			}
			out = append(out, r)
		}
		if threads > 1 && eng.Stats().ShardDispatches == 0 {
			t.Errorf("threads=%d: no pool dispatches over %d patterns", threads, norm.Patterns.NumPatterns())
		}
		return out
	}

	ref := evaluate(1)
	bestRef := 0
	for i, r := range ref {
		if r.LnL > ref[bestRef].LnL {
			bestRef = i
		}
	}
	for _, n := range []int{2, 4, 7} {
		got := evaluate(n)
		best := 0
		for i, r := range got {
			if math.Float64bits(r.LnL) != math.Float64bits(ref[i].LnL) {
				t.Errorf("threads=%d task %d: lnL %.17g != serial %.17g", n, r.TaskID, r.LnL, ref[i].LnL)
			}
			if !reflect.DeepEqual(r.Lens, ref[i].Lens) {
				t.Errorf("threads=%d task %d: optimized tree differs from serial", n, r.TaskID)
			}
			if r.LnL > got[best].LnL {
				best = i
			}
		}
		if best != bestRef {
			t.Errorf("threads=%d: chose insertion %d, serial chose %d", n, best, bestRef)
		}
	}
}

// poolConfig is a search fixture with well over likelihood.MinPoolPad
// distinct columns, so that an engine with threads > 1 builds its shard
// pool instead of running its kernels inline.
func poolConfig(t *testing.T) Config {
	t.Helper()
	ds, err := simulate.New(simulate.Options{Taxa: 8, Sites: 6000, Seed: 11, MeanBranchLen: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pat.NumPatterns() < likelihood.MinPoolPad {
		t.Fatalf("%d patterns, under the pool's %d", pat.NumPatterns(), likelihood.MinPoolPad)
	}
	m, err := NewDefaultModel(pat)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: m, Seed: 12345, RearrangeExtent: 1}
}

// TestParallelMatchesSerialThreadedPipelined extends the serial-equality
// contract to the new knobs: engine threads > 1 and foreman pipeline
// depths other than the default must not change the answer. The fixture
// is long enough for the workers' engines to run their kernels on the
// shard pool, which every worker's observer must have seen.
func TestParallelMatchesSerialThreadedPipelined(t *testing.T) {
	cfg := poolConfig(t)
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ threads, pipeline, workers int }{
		{2, 1, 3},
		{4, 2, 2},
		{2, 3, 3},
		{3, 4, 1},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("threads=%d_pipeline=%d_workers=%d", c.threads, c.pipeline, c.workers), func(t *testing.T) {
			tcfg := cfg
			tcfg.Threads = c.threads
			hooks := map[int]WorkerHooks{}
			for w := 0; w < c.workers; w++ {
				hooks[firstWorkerRank+w] = WorkerHooks{Obs: NewWorkerObserver(nil)}
			}
			out, err := Run(tcfg, RunOptions{
				Transport:   Local,
				Workers:     c.workers,
				Foreman:     ForemanOptions{Pipeline: c.pipeline},
				WorkerHooks: hooks,
			})
			if err != nil {
				t.Fatal(err)
			}
			par := out.Results[0]
			if par.BestNewick != serial.BestNewick {
				t.Errorf("tree differs from serial")
			}
			if par.LnL != serial.LnL {
				t.Errorf("lnL %g != serial %g", par.LnL, serial.LnL)
			}
			if par.TotalTasks != serial.TotalTasks {
				t.Errorf("%d tasks != serial %d", par.TotalTasks, serial.TotalTasks)
			}
			for rank, h := range hooks {
				if snap := h.Obs.Snapshot(); snap.ShardDisp == 0 {
					t.Errorf("worker %d ran %d tasks without a pool dispatch (threads %d)", rank, snap.Tasks, snap.Threads)
				}
			}
		})
	}
}
