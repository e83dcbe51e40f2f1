package core

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_infer.json from this build")

// goldenInfer is what Infer's reporting adds to the searches that
// mlsearch's golden table pins: the pick of the best jumble and the
// majority rule consensus over all of them.
type goldenInfer struct {
	BestNewick string             `json:"best_newick"`
	BestLnL    float64            `json:"best_lnl"`
	Consensus  string             `json:"consensus"`
	SplitFreq  map[string]float64 `json:"split_freq"`
}

// TestGoldenInferConsensus pins one multi-jumble Infer across commits.
// Its five jumbles disagree: splits are found by 2, 3 and 4 of them, so
// the consensus moves with the majority threshold. The expected values
// were generated with -update; a change that means to move results
// regenerates them and says so.
func TestGoldenInferConsensus(t *testing.T) {
	const path = "testdata/golden_infer.json"
	a := testAlignment(t, 9, 40, 8)
	inf, err := Infer(a, Options{Spec: Spec{Seed: 7, Jumbles: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if inf.Consensus == nil {
		t.Fatal("no consensus over 5 jumbles")
	}
	got := goldenInfer{
		BestNewick: inf.Best.Newick,
		BestLnL:    inf.Best.LnL,
		Consensus:  inf.Consensus.Tree.Newick(),
		SplitFreq:  inf.Consensus.SplitFreq,
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenInfer
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if got.BestNewick != want.BestNewick {
		t.Errorf("best newick\n got %s\nwant %s", got.BestNewick, want.BestNewick)
	}
	if math.Abs(got.BestLnL-want.BestLnL) > 1e-12*math.Abs(want.BestLnL) {
		t.Errorf("best lnL %.17g, want %.17g", got.BestLnL, want.BestLnL)
	}
	if got.Consensus != want.Consensus {
		t.Errorf("consensus\n got %s\nwant %s", got.Consensus, want.Consensus)
	}
	if !reflect.DeepEqual(got.SplitFreq, want.SplitFreq) {
		t.Errorf("split frequencies\n got %v\nwant %v", got.SplitFreq, want.SplitFreq)
	}
}
