package mlsearch

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/tree"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_search.json from this build")

// goldenTree is one pinned tree: its Newick byte for byte, its lnL, and
// for searches the round and task counts, which move when a loop bound
// or the improvement threshold does even if the tree does not.
type goldenTree struct {
	Newick string  `json:"newick"`
	LnL    float64 `json:"lnl"`
	Rounds int     `json:"rounds,omitempty"`
	Tasks  int     `json:"tasks,omitempty"`
}

const goldenSearchFile = "testdata/golden_search.json"

// goldenConfig is testConfig with a chosen data seed, mean branch
// length, model and compression options.
func goldenConfig(t *testing.T, taxa, sites int, dataSeed int64, meanLen float64, mk func(seq.BaseFreqs) (model.Model, error), opt seq.CompressOptions) Config {
	t.Helper()
	ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: dataSeed, MeanBranchLen: meanLen})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mk(seq.EmpiricalFreqsPatterns(pat))
	if err != nil {
		t.Fatal(err)
	}
	return Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: m, Seed: 12345, RearrangeExtent: 1}
}

func f84(f seq.BaseFreqs) (model.Model, error)   { return model.NewF84(f, model.DefaultTTRatio) }
func hky85(f seq.BaseFreqs) (model.Model, error) { return model.NewHKY85(f, 3.5) }
func gtr(f seq.BaseFreqs) (model.Model, error) {
	return model.NewGTR(f, model.GTRRates{AC: 1.2, AG: 4.1, AT: 0.7, CG: 0.9, CT: 3.6, GT: 1})
}

func searchRow(res *SearchResult) goldenTree {
	return goldenTree{Newick: res.BestNewick, LnL: res.LnL, Rounds: len(res.Rounds), Tasks: res.TotalTasks}
}

// TestGoldenSearchResults pins what a search returns across commits: the
// determinism tests compare one runtime with another at the same commit,
// so a changed search rule (a smoothing pass count, the improvement
// threshold, the round bound) passes all of them and fails here. The
// expected values were generated with -update before any such rule
// moved from a setting to a constant; a change that means to move
// results regenerates them and says so.
func TestGoldenSearchResults(t *testing.T) {
	got := map[string][]goldenTree{}
	serial := func(name string, cfg Config) {
		res, err := runSerial(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = []goldenTree{searchRow(res)}
	}

	serial("f84_extent1", goldenConfig(t, 8, 200, 42, 0.12, f84, seq.CompressOptions{}))

	cfg := goldenConfig(t, 7, 180, 5, 0.12, hky85, seq.CompressOptions{})
	cfg.RearrangeExtent = 2
	serial("hky85_extent2", cfg)

	cfg = goldenConfig(t, 8, 160, 11, 0.12, gtr, seq.CompressOptions{})
	cfg.FinalExtent = 2
	cfg.AdaptiveExtent = true
	serial("gtr_adaptive", cfg)

	// Long branches: full smoothing runs into its pass bound here, so
	// this row moves when the bound does.
	serial("gtr_long_branches", goldenConfig(t, 10, 200, 1, 0.8, gtr, seq.CompressOptions{}))

	const wsites = 150
	rng := rand.New(rand.NewSource(3))
	weights := make([]float64, wsites)
	rates := make([]float64, wsites)
	for i := range weights {
		weights[i] = float64(rng.Intn(3))
		rates[i] = 0.25 + 2*rng.Float64()
	}
	serial("f84_weights_rates", goldenConfig(t, 7, wsites, 8, 0.12, f84, seq.CompressOptions{Weights: weights, Rates: rates}))

	// Three jumbles over two in-process workers: the foreman's dispatch,
	// tick and drain are on this path as well as the search's.
	cfg = goldenConfig(t, 7, 120, 21, 0.12, f84, seq.CompressOptions{})
	out, err := Run(cfg, RunOptions{Transport: Local, Workers: 2, Jumbles: 3})
	if err != nil {
		t.Fatal(err)
	}
	var jumbles []goldenTree
	for _, res := range out.Results {
		jumbles = append(jumbles, searchRow(res))
	}
	got["local2w_3jumbles"] = jumbles

	// Kishino-Hasegawa over the searched tree and two random ones.
	cfg = goldenConfig(t, 7, 200, 13, 0.12, hky85, seq.CompressOptions{})
	res, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	best, err := tree.ParseNewick(res.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	trees := []*tree.Tree{best}
	trng := rand.New(rand.NewSource(99))
	for i := 0; i < 2; i++ {
		rt, err := tree.RandomTree(cfg.Taxa, trng, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, rt)
	}
	kh, err := KishinoHasegawa(cfg, trees)
	if err != nil {
		t.Fatal(err)
	}
	var ranked []goldenTree
	for _, r := range kh {
		ranked = append(ranked, goldenTree{Newick: r.Newick, LnL: r.LnL})
	}
	got["kishino_hasegawa"] = ranked

	checkGolden(t, goldenSearchFile, got)
}

// checkGolden compares got with the JSON file at path, or rewrites the
// file under -update. Newicks must match byte for byte; lnLs within
// 1e-12 relative, so a host whose compiler contracts multiply-adds
// (ROADMAP item 14) differs only where it must.
func checkGolden(t *testing.T, path string, got map[string][]goldenTree) {
	t.Helper()
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
	var want map[string][]goldenTree
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d rows, golden file has %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d trees, want %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i].Newick != w[i].Newick {
				t.Errorf("%s[%d]: newick\n got %s\nwant %s", name, i, g[i].Newick, w[i].Newick)
			}
			if math.Abs(g[i].LnL-w[i].LnL) > 1e-12*math.Abs(w[i].LnL) {
				t.Errorf("%s[%d]: lnL %.17g, want %.17g", name, i, g[i].LnL, w[i].LnL)
			}
			if g[i].Rounds != w[i].Rounds || g[i].Tasks != w[i].Tasks {
				t.Errorf("%s[%d]: %d rounds / %d tasks, want %d / %d", name, i, g[i].Rounds, g[i].Tasks, w[i].Rounds, w[i].Tasks)
			}
		}
	}
}
