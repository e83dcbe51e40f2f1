package mlsearch

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tree"
)

func TestKishinoHasegawaRanksAndTests(t *testing.T) {
	cfg := testConfig(t, 8, 600, 61)
	res, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := tree.ParseNewick(res.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	// A caterpillar over the same taxa: almost surely much worse on 600
	// informative sites.
	n := cfg.Taxa
	cat := fmt.Sprintf("(%s,%s,(%s,(%s,(%s,(%s,(%s,%s))))));",
		n[0], n[1], n[2], n[3], n[4], n[5], n[6], n[7])
	worse, err := tree.ParseNewick(cat, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}

	out, err := KishinoHasegawa(cfg, []*tree.Tree{worse, best})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("%d results", len(out))
	}
	top := out[0]
	if top.Diff != 0 || top.SD != 0 || top.SignificantlyWorse {
		t.Errorf("best tree KH fields should be zero: %+v", top)
	}
	second := out[1]
	if second.Diff >= 0 {
		t.Errorf("second tree diff %g, want negative", second.Diff)
	}
	if second.SD <= 0 {
		t.Errorf("second tree SD %g, want positive", second.SD)
	}
	if math.IsNaN(second.SD) || math.IsInf(second.SD, 0) {
		t.Fatalf("SD = %g", second.SD)
	}
	// With a deficit this large the KH test should call it.
	if second.Diff < -50 && !second.SignificantlyWorse {
		t.Errorf("deficit %.1f with SD %.1f not flagged significant", second.Diff, second.SD)
	}
}

func TestKishinoHasegawaNearTies(t *testing.T) {
	// Two NNI-adjacent trees on weak data should usually NOT be called
	// significantly different.
	cfg := testConfig(t, 6, 60, 63)
	res, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := tree.ParseNewick(res.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	var neighbor *tree.Tree
	_, err = best.Clone().Rearrangements(1, func(view *tree.Tree, c tree.RearrangeCandidate) bool {
		nb, perr := tree.ParseNewick(view.Newick(), cfg.Taxa)
		if perr == nil {
			neighbor = nb
		}
		return false // first neighbor only
	})
	if err != nil || neighbor == nil {
		t.Fatal("no NNI neighbor")
	}
	out, err := KishinoHasegawa(cfg, []*tree.Tree{best, neighbor})
	if err != nil {
		t.Fatal(err)
	}
	// The difference between adjacent topologies on 60 sites is tiny;
	// the test must not scream significance for the runner-up unless the
	// deficit really exceeds 1.96 SD (consistency check of the flag).
	second := out[1]
	wantFlag := second.Diff < -1.96*second.SD
	if second.SignificantlyWorse != wantFlag {
		t.Errorf("flag %v inconsistent with diff %g sd %g", second.SignificantlyWorse, second.Diff, second.SD)
	}
}

func TestKishinoHasegawaErrors(t *testing.T) {
	cfg := testConfig(t, 6, 80, 65)
	if _, err := KishinoHasegawa(cfg, nil); err == nil {
		t.Error("empty tree list accepted")
	}
	names := cfg.Taxa[:4]
	small, _ := tree.ParseNewick(fmt.Sprintf("((%s,%s),%s,%s);", names[0], names[1], names[2], names[3]), cfg.Taxa)
	if _, err := KishinoHasegawa(cfg, []*tree.Tree{small}); err == nil {
		t.Error("incomplete tree accepted")
	}
}

// TestWorkerChurnPermanentDeath: a worker that dies for good mid-run
// (stops replying forever) must not prevent completion, and the answer
// still matches serial — the volunteer-computing scenario of §2.2/§5.
func TestWorkerChurnPermanentDeath(t *testing.T) {
	cfg := testConfig(t, 7, 150, 67)
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	hooks := map[int]WorkerHooks{
		3: {BeforeReply: func(task Task, res Result) bool {
			count++
			return count <= 5 // dies permanently after 5 replies
		}},
	}
	out, err := Run(cfg, RunOptions{
		Transport:   Local,
		Workers:     2,
		WorkerHooks: hooks,
		Foreman:     ForemanOptions{TaskTimeout: 100_000_000}, // 100ms
	})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results[0]
	if res.BestNewick != serial.BestNewick || res.LnL != serial.LnL {
		t.Error("run with a permanently dead worker diverged from serial")
	}
}
