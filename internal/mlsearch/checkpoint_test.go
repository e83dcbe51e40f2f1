package mlsearch

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tree"
)

// oneBlockManifest renders cp as the restart file a run of jumbles
// orderings writes after cp's jumble reported it.
func oneBlockManifest(t *testing.T, jumbles int, cp Checkpoint) string {
	t.Helper()
	m := NewManifest(jumbles)
	m.Set(cp)
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := Checkpoint{
		Seed:      13,
		Jumble:    2,
		Order:     []int{4, 1, 0, 3, 2},
		NextIndex: 4,
		Phase:     PhaseAdding,
		Newick:    "((t00,t01),t03,t04);",
		LnL:       -1234.56789,
		Tasks:     57,
		Ops:       1 << 40,
	}
	m, err := ReadManifest(strings.NewReader(oneBlockManifest(t, 3, cp)))
	if err != nil {
		t.Fatal(err)
	}
	back, ok := m.Checkpoint(2)
	if !ok || len(m.Checkpoints) != 1 {
		t.Fatalf("manifest holds %+v", m.Checkpoints)
	}
	if back.Seed != cp.Seed || back.Jumble != cp.Jumble || back.NextIndex != cp.NextIndex ||
		back.Phase != cp.Phase || back.Newick != cp.Newick || back.LnL != cp.LnL ||
		back.Tasks != cp.Tasks || back.Ops != cp.Ops {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if len(back.Order) != 5 || back.Order[0] != 4 {
		t.Errorf("order %v", back.Order)
	}
}

// TestCheckpointReadErrors: a checkpoint block's lines are parsed
// strictly — in an otherwise valid manifest, a line without a value, a
// key the format does not have or a value that does not parse is an
// error.
func TestCheckpointReadErrors(t *testing.T) {
	cp := Checkpoint{Seed: 13, Order: []int{2, 0, 1, 3}, NextIndex: 3, Phase: PhaseAdding, Newick: "(a,b,c);", LnL: -1}
	valid := oneBlockManifest(t, 1, cp)
	if _, err := ReadManifest(strings.NewReader(valid)); err != nil {
		t.Fatal(err)
	}
	for _, edit := range [][2]string{
		{"end jumble\n", "bogus\nend jumble\n"},
		{"end jumble\n", "unknown 5\nend jumble\n"},
		{"seed 13\n", "seed abc\n"},
		{"order 2,0,1,3\n", "order 1,x\n"},
		{"next 3\n", "next 4.5\n"},
		{"lnl -1\n", "lnl many\n"},
		{"tasks 0\n", "tasks -1\n"},
		{"ops 0\n", "ops -1\n"},
	} {
		if !strings.Contains(valid, edit[0]) {
			t.Fatalf("no %q in the manifest", edit[0])
		}
		s := strings.Replace(valid, edit[0], edit[1], 1)
		if _, err := ReadManifest(strings.NewReader(s)); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

// TestManifestWithoutTotalsIsRefused: a block written before
// checkpoints carried their totals has no tasks or ops line. It is an
// error naming the key, so -resume reports it and the daemon's janitor
// starts the job afresh, rather than resuming with totals that miss the
// work before the restart.
func TestManifestWithoutTotalsIsRefused(t *testing.T) {
	cp := Checkpoint{Seed: 13, Order: []int{2, 0, 1, 3}, NextIndex: 3, Phase: PhaseAdding, Newick: "(a,b,c);", LnL: -1, Tasks: 9, Ops: 99}
	for _, key := range []string{"tasks", "ops"} {
		lines := strings.SplitAfter(oneBlockManifest(t, 1, cp), "\n")
		var old strings.Builder
		for _, l := range lines {
			if !strings.HasPrefix(l, key+" ") {
				old.WriteString(l)
			}
		}
		_, err := ReadManifest(strings.NewReader(old.String()))
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("manifest without %s: error %v, want one naming the key", key, err)
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

// TestResumeMatchesUninterrupted: an uninterrupted run reports one
// checkpoint per taxon addition plus the final one, which holds the
// run's own answer. TestIdentityMatrix in internal/core resumes from
// them on every transport.
func TestResumeMatchesUninterrupted(t *testing.T) {
	cfg := testConfig(t, 8, 150, 27)
	s, err := NewSearch(cfg, serialLane(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	var cps []Checkpoint
	s.OnCheckpoint = func(cp Checkpoint) { cps = append(cps, cp) }
	full, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// One checkpoint per addition (5 for 8 taxa) plus the final one.
	if len(cps) != (8-3)+1 {
		t.Fatalf("%d checkpoints, want %d", len(cps), 8-3+1)
	}
	last := cps[len(cps)-1]
	if last.Phase != PhaseDone || last.LnL != full.LnL || last.Newick != full.BestNewick {
		t.Errorf("final checkpoint %+v", last)
	}
}

func TestResumeRejectsMismatchedTree(t *testing.T) {
	cfg := testConfig(t, 6, 100, 31)
	s, _ := NewSearch(cfg, serialLane(t, cfg))
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

// TestResumeDone returns immediately with the checkpointed answer and
// the checkpointed totals, dispatching nothing.
func TestResumeDone(t *testing.T) {
	cfg := testConfig(t, 6, 100, 33)
	disp := serialLane(t, cfg)
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
	if res.LnL != full.LnL || len(res.Rounds) != 0 || res.TotalTasks != full.TotalTasks || res.TotalOps != full.TotalOps {
		t.Errorf("done-resume should be free: %+v", res)
	}
}
