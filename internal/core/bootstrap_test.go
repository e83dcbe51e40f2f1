package core

import (
	"testing"

	"repro/internal/tree"
)

func TestBootstrapBasics(t *testing.T) {
	a := testAlignment(t, 7, 500, 41)
	res, err := Bootstrap(a, Options{Spec: Spec{Seed: 9}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) != 4 || len(res.LnLs) != 4 {
		t.Fatalf("%d trees, %d lnLs", len(res.Trees), len(res.LnLs))
	}
	for i, tr := range res.Trees {
		if err := tr.Validate(true); err != nil {
			t.Errorf("replicate %d: %v", i, err)
		}
		if tr.NumLeaves() != 7 {
			t.Errorf("replicate %d has %d leaves", i, tr.NumLeaves())
		}
	}
	if res.Consensus == nil {
		t.Fatal("no consensus")
	}
	// Bootstrap proportions lie in (0, 1].
	for k, f := range res.Consensus.SplitFreq {
		if f <= 0 || f > 1 {
			t.Errorf("split %s support %g", k, f)
		}
	}
	// With 500 strong sites, at least one split should be unanimous.
	max := 0.0
	for _, f := range res.Consensus.SplitFreq {
		if f > max {
			max = f
		}
	}
	if max < 0.75 {
		t.Errorf("strongest bootstrap support %.2f suspiciously weak", max)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	a := testAlignment(t, 6, 200, 43)
	r1, err := Bootstrap(a, Options{Spec: Spec{Seed: 3}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Bootstrap(a, Options{Spec: Spec{Seed: 3}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Trees {
		if !tree.SameTopology(r1.Trees[i], r2.Trees[i]) {
			t.Errorf("replicate %d differs between identical runs", i)
		}
	}
	r3, err := Bootstrap(a, Options{Spec: Spec{Seed: 5}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range r1.Trees {
		if r1.LnLs[i] == r3.LnLs[i] {
			same++
		}
	}
	if same == len(r1.Trees) {
		t.Error("different seeds gave identical replicate likelihoods (suspicious)")
	}
}

func TestBootstrapValidation(t *testing.T) {
	a := testAlignment(t, 6, 100, 47)
	if _, err := Bootstrap(a, Options{}, 1); err == nil {
		t.Error("1 replicate accepted")
	}
}

func TestModelSelection(t *testing.T) {
	a := testAlignment(t, 6, 200, 51)
	lnls := map[string]float64{}
	for _, name := range []string{"F84", "JC69", "K80", "HKY85", "GTR"} {
		inf, err := Infer(a, Options{Spec: Spec{Seed: 3, Model: name}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inf.Model.Name() != name {
			t.Errorf("requested %s, got %s", name, inf.Model.Name())
		}
		lnls[name] = inf.Best.LnL
	}
	// Models should produce different likelihoods on non-uniform data.
	if lnls["F84"] == lnls["JC69"] {
		t.Error("F84 and JC69 gave identical lnL (suspicious)")
	}
	// F84/HKY85 (empirical freqs + transition bias) should beat JC69 on
	// data generated under F84-like composition.
	if lnls["F84"] <= lnls["JC69"] {
		t.Errorf("F84 (%.2f) should fit better than JC69 (%.2f)", lnls["F84"], lnls["JC69"])
	}
	if _, err := Infer(a, Options{Spec: Spec{Model: "WAG"}}); err == nil {
		t.Error("unknown model accepted")
	}
}
