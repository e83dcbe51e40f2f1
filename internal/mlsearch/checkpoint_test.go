package mlsearch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tree"
)

func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := Checkpoint{
		Seed:      13,
		Jumble:    2,
		Order:     []int{4, 1, 0, 3, 2},
		NextIndex: 4,
		Phase:     PhaseAdding,
		Newick:    "((t00,t01),t03,t04);",
		LnL:       -1234.56789,
	}
	var buf bytes.Buffer
	if err := writeFlatCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != cp.Seed || back.Jumble != cp.Jumble || back.NextIndex != cp.NextIndex ||
		back.Phase != cp.Phase || back.Newick != cp.Newick || back.LnL != cp.LnL {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if len(back.Order) != 5 || back.Order[0] != 4 {
		t.Errorf("order %v", back.Order)
	}
}

func TestCheckpointReadErrors(t *testing.T) {
	bad := []string{
		"",
		"not a checkpoint\n",
		"fastdnaml-checkpoint v1\nbogus\n",
		"fastdnaml-checkpoint v1\nseed abc\n",
		"fastdnaml-checkpoint v1\nunknown 5\n",
		"fastdnaml-checkpoint v1\norder 1,x\n",
	}
	for _, s := range bad {
		if _, err := ReadCheckpoint(strings.NewReader(s)); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestCheckpointValidate(t *testing.T) {
	good := Checkpoint{Order: []int{0, 1, 2, 3}, NextIndex: 3, Phase: PhaseAdding, Newick: "x"}
	if err := good.Validate(4); err != nil {
		t.Error(err)
	}
	bad := []Checkpoint{
		{Order: []int{0, 1, 2}, NextIndex: 3, Phase: PhaseAdding, Newick: "x"},                // wrong count
		{Order: []int{0, 1, 1, 3}, NextIndex: 3, Phase: PhaseAdding, Newick: "x"},             // not a permutation
		{Order: []int{0, 1, 2, 3}, NextIndex: 2, Phase: PhaseAdding, Newick: "x"},             // index too small
		{Order: []int{0, 1, 2, 3}, NextIndex: 3, Phase: PhaseFinal, Newick: "x"},              // final with taxa left
		{Order: []int{0, 1, 2, 3}, NextIndex: 4, Phase: "weird", Newick: "x"},                 // bad phase
		{Order: []int{0, 1, 2, 3}, NextIndex: 4, Phase: PhaseDone, Newick: ""},                // no tree
		{Order: []int{0, 1, 2, 3, 4}, NextIndex: 5, Phase: PhaseDone, Newick: "((a,b),c,d);"}, // wrong taxa count
	}
	for i, cp := range bad {
		n := 4
		if i == len(bad)-1 {
			n = 4
		}
		if err := cp.Validate(n); err == nil {
			t.Errorf("case %d accepted: %+v", i, cp)
		}
	}
}

// TestResumeMatchesUninterrupted: stopping at every checkpoint and
// resuming must land on exactly the same final tree and likelihood as an
// uninterrupted run.
func TestResumeMatchesUninterrupted(t *testing.T) {
	cfg := testConfig(t, 8, 150, 27)
	disp, err := NewSerialDispatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearch(cfg, disp)
	if err != nil {
		t.Fatal(err)
	}
	var cps []Checkpoint
	s.OnCheckpoint = func(cp Checkpoint) { cps = append(cps, cp) }
	full, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	// One checkpoint per addition (5 for 8 taxa) plus the final one.
	if len(cps) != (8-3)+1 {
		t.Errorf("%d checkpoints, want %d", len(cps), 8-3+1)
	}
	last := cps[len(cps)-1]
	if last.Phase != PhaseDone || last.LnL != full.LnL {
		t.Errorf("final checkpoint %+v", last)
	}

	// Every position, written as a flat "fastdnaml-checkpoint v1" file
	// the way releases before the one-format manifest wrote it, must
	// still load and resume to the same answer.
	path := filepath.Join(t.TempDir(), "restart")
	for i, cp := range cps {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFlatCheckpoint(f, cp); err != nil {
			t.Fatal(err)
		}
		f.Close()
		m, err := LoadResume(path)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(cfg, RunOptions{ResumeManifest: m})
		if err != nil {
			t.Fatalf("resume from checkpoint %d: %v", i, err)
		}
		res := out.Results[0]
		if res.BestNewick != full.BestNewick {
			t.Errorf("checkpoint %d (%s): resumed tree differs", i, cp.Phase)
		}
		if res.LnL != full.LnL {
			t.Errorf("checkpoint %d: resumed lnL %g != %g", i, res.LnL, full.LnL)
		}
	}
}

func TestResumeRejectsMismatchedTree(t *testing.T) {
	cfg := testConfig(t, 6, 100, 31)
	disp, _ := NewSerialDispatcher(cfg)
	s, _ := NewSearch(cfg, disp)
	order := TaxonOrder(6, cfg.Seed)
	// Build a tree whose taxa do not match the order prefix.
	wrong := []int{order[0], order[1], order[5]}
	tr, err := tree.Triple(cfg.Taxa, wrong[0], wrong[1], wrong[2])
	if err != nil {
		t.Fatal(err)
	}
	cp := Checkpoint{
		Seed: cfg.Seed, Order: order, NextIndex: 3,
		Phase: PhaseAdding, Newick: tr.Newick(), LnL: -1,
	}
	if order[2] != order[5] {
		if _, err := s.Resume(cp); err == nil {
			t.Error("mismatched checkpoint tree accepted")
		}
	}
}

// TestResumeDone returns immediately with the checkpointed answer.
func TestResumeDone(t *testing.T) {
	cfg := testConfig(t, 6, 100, 33)
	disp, _ := NewSerialDispatcher(cfg)
	s, _ := NewSearch(cfg, disp)
	var final Checkpoint
	s.OnCheckpoint = func(cp Checkpoint) { final = cp }
	full, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := NewSearch(cfg, disp)
	res, err := s2.Resume(final)
	if err != nil {
		t.Fatal(err)
	}
	if res.LnL != full.LnL || res.TotalTasks != 0 {
		t.Errorf("done-resume should be free: %+v", res)
	}
}

// TestEvaluateUserTrees ranks given topologies; the search's own result
// must rank at least as well as a random tree.
func TestEvaluateUserTrees(t *testing.T) {
	cfg := testConfig(t, 7, 200, 35)
	res, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := tree.ParseNewick(res.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately different topology: a caterpillar over the same taxa.
	n := cfg.Taxa
	cat := fmt.Sprintf("(%s,%s,(%s,(%s,(%s,(%s,%s)))));", n[0], n[1], n[2], n[3], n[4], n[5], n[6])
	other, err := tree.ParseNewick(cat, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	disp, _ := NewSerialDispatcher(cfg)
	ranked, err := EvaluateUserTrees(cfg, []*tree.Tree{other, best}, disp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 {
		t.Fatalf("%d results", len(ranked))
	}
	if ranked[0].DiffFromBest != 0 {
		t.Errorf("best tree diff %g", ranked[0].DiffFromBest)
	}
	if ranked[1].DiffFromBest > 0 {
		t.Errorf("second tree diff %g > 0", ranked[1].DiffFromBest)
	}
	if ranked[0].LnL < ranked[1].LnL {
		t.Error("ranking not sorted")
	}
	// The search's tree should win or tie (it was optimized for this data).
	if ranked[0].Index != 1 && ranked[0].LnL < res.LnL-1e-6 {
		t.Errorf("search tree outranked by a fixed guess: %+v", ranked)
	}
	// Every result returns its optimized tree.
	for _, r := range ranked {
		if r.Newick == "" {
			t.Error("missing optimized tree")
		}
	}
}

// TestEvaluateUserTreesParallelKeepsTrees: the parallel runtime must
// return every user tree's optimized form (KeepTree flag).
func TestEvaluateUserTreesParallelKeepsTrees(t *testing.T) {
	cfg := testConfig(t, 6, 120, 37)
	world := newTestWorld(t, 4)
	lay := Layout{Master: 0, Foreman: 1, Workers: []int{2, 3}}
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range lay.Workers {
		go func(rank int) {
			_ = RunWorker(world[rank], lay, norm, WorkerHooks{})
		}(w)
	}
	_, disp := newTestMaster(t, world, lay, ForemanOptions{})

	trees := []*tree.Tree{}
	n := cfg.Taxa
	for _, nwk := range []string{
		fmt.Sprintf("((%s,%s),%s,(%s,(%s,%s)));", n[0], n[1], n[2], n[3], n[4], n[5]),
		fmt.Sprintf("((%s,%s),%s,(%s,(%s,%s)));", n[0], n[2], n[1], n[3], n[4], n[5]),
		fmt.Sprintf("((%s,%s),%s,(%s,(%s,%s)));", n[0], n[3], n[1], n[2], n[4], n[5]),
	} {
		tr, err := tree.ParseNewick(nwk, cfg.Taxa)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	ranked, err := EvaluateUserTrees(cfg, trees, disp)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranked {
		if r.Newick == "" {
			t.Errorf("result %d lost its tree through the parallel runtime", i)
		}
	}
	// Must agree with serial evaluation.
	sdisp, _ := NewSerialDispatcher(cfg)
	serial, err := EvaluateUserTrees(cfg, trees, sdisp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ranked {
		if ranked[i].LnL != serial[i].LnL || ranked[i].Index != serial[i].Index {
			t.Errorf("rank %d differs between serial and parallel", i)
		}
	}
}
