package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mlsearch"
	"repro/internal/seq"
	"repro/internal/simulate"
)

func testAlignment(t *testing.T, taxa, sites int, seed int64) *seq.Alignment {
	t.Helper()
	ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: seed, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Alignment
}

func TestInferSerialSingleJumble(t *testing.T) {
	a := testAlignment(t, 8, 200, 3)
	inf, err := Infer(a, Options{Spec: Spec{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Jumbles) != 1 {
		t.Fatalf("%d jumbles", len(inf.Jumbles))
	}
	if inf.Best == nil || inf.Best.Tree.NumLeaves() != 8 {
		t.Fatal("bad best tree")
	}
	if inf.Consensus != nil {
		t.Error("single jumble should have no consensus")
	}
	if inf.Best.LnL >= 0 {
		t.Errorf("lnL = %g", inf.Best.LnL)
	}
	if inf.Model.Name() != "F84" {
		t.Errorf("default model %s", inf.Model.Name())
	}
}

func TestInferMultiJumbleConsensus(t *testing.T) {
	a := testAlignment(t, 7, 400, 9)
	inf, err := Infer(a, Options{Spec: Spec{Seed: 5, Jumbles: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Jumbles) != 3 {
		t.Fatalf("%d jumbles", len(inf.Jumbles))
	}
	if inf.Consensus == nil {
		t.Fatal("no consensus over 3 jumbles")
	}
	if inf.Consensus.Tree.NumLeaves() != 7 {
		t.Errorf("consensus has %d leaves", inf.Consensus.Tree.NumLeaves())
	}
	for i := range inf.Jumbles {
		if inf.Best.LnL < inf.Jumbles[i].LnL {
			t.Error("Best is not the best jumble")
		}
	}
	// Seeds must be odd and distinct.
	seen := map[int64]bool{}
	for _, j := range inf.Jumbles {
		if j.Seed%2 == 0 {
			t.Errorf("even jumble seed %d", j.Seed)
		}
		if seen[j.Seed] {
			t.Errorf("duplicate seed %d", j.Seed)
		}
		seen[j.Seed] = true
	}
}

func TestInferParallelMatchesSerial(t *testing.T) {
	a := testAlignment(t, 7, 200, 13)
	serial, err := Infer(a, Options{Spec: Spec{Seed: 7, Jumbles: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var monOut bytes.Buffer
	par, err := Infer(a, Options{Spec: Spec{Seed: 7, Jumbles: 2}, Run: mlsearch.RunOptions{Transport: mlsearch.Local, Workers: 3, MonitorOut: &monOut}})
	if err != nil {
		t.Fatal(err)
	}
	for j := range serial.Jumbles {
		if serial.Jumbles[j].Newick != par.Jumbles[j].Newick {
			t.Errorf("jumble %d trees differ between serial and parallel", j)
		}
		if serial.Jumbles[j].LnL != par.Jumbles[j].LnL {
			t.Errorf("jumble %d lnL differs", j)
		}
	}
	if par.Monitor == nil {
		t.Fatal("no run snapshot from the monitored run")
	}
	tasks := 0
	for _, j := range par.Jumbles {
		tasks += j.Search.TotalTasks
	}
	if par.Monitor.Completed != tasks {
		t.Errorf("run snapshot counts %d results, the jumbles ran %d tasks", par.Monitor.Completed, tasks)
	}
	if want := fmt.Sprintf("monitor: shutdown after %d rounds, %d results\n", par.Monitor.Rounds, tasks); !strings.HasSuffix(monOut.String(), want) {
		t.Errorf("monitor output ends %q, want %q", monOut.String(), want)
	}
}

func TestInferProgressCallback(t *testing.T) {
	a := testAlignment(t, 6, 150, 17)
	var events int
	var lastJumble int
	_, err := Infer(a, Options{Spec: Spec{Seed: 3, Jumbles: 2}, Run: mlsearch.RunOptions{Progress: func(j int, e mlsearch.ProgressEvent) {
		events++
		lastJumble = j
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no progress events")
	}
	if lastJumble != 1 {
		t.Errorf("last event from jumble %d, want 1", lastJumble)
	}
}

func TestInferWithSiteRates(t *testing.T) {
	a := testAlignment(t, 6, 100, 19)
	rates := make([]float64, 100)
	for i := range rates {
		rates[i] = 0.5
		if i%2 == 0 {
			rates[i] = 1.5
		}
	}
	inf, err := Infer(a, Options{Spec: Spec{Seed: 3}, SiteRates: rates})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Infer(a, Options{Spec: Spec{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if inf.Best.LnL == flat.Best.LnL {
		t.Error("site rates had no effect")
	}
}

func TestInferValidation(t *testing.T) {
	if _, err := Infer(seq.NewAlignment(0), Options{}); err == nil {
		t.Error("empty alignment accepted")
	}
	a := testAlignment(t, 6, 100, 23)
	if _, err := Infer(a, Options{SiteRates: []float64{1}}); err == nil {
		t.Error("wrong-length site rates accepted")
	}
}

func TestPrepareDefaults(t *testing.T) {
	a := testAlignment(t, 6, 100, 29)
	cfg, opt, err := Prepare(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.TTRatio != 2.0 || opt.Jumbles != 1 || opt.Extent != 1 {
		t.Errorf("defaults: %+v", opt)
	}
	if cfg.Patterns == nil || cfg.Model == nil || len(cfg.Taxa) != 6 {
		t.Error("incomplete config")
	}
	if !strings.HasPrefix(cfg.Model.Name(), "F84") {
		t.Errorf("model %s", cfg.Model.Name())
	}
}
