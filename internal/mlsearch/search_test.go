package mlsearch

import (
	"math"
	"testing"

	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/tree"
)

// testConfig builds a small simulated data set and search config.
func testConfig(t *testing.T, taxa, sites int, seed int64) Config {
	t.Helper()
	ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: seed, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewDefaultModel(pat)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Taxa:            ds.Alignment.Names,
		Patterns:        pat,
		Model:           m,
		Seed:            12345,
		RearrangeExtent: 1,
	}
}

func TestSerialSearchBasics(t *testing.T) {
	cfg := testConfig(t, 8, 200, 42)
	res, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LnL >= 0 || math.IsInf(res.LnL, 0) || math.IsNaN(res.LnL) {
		t.Fatalf("lnL = %g", res.LnL)
	}
	tr, err := tree.ParseNewick(res.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatalf("final tree unparseable: %v", err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 8 {
		t.Errorf("final tree has %d leaves, want 8", tr.NumLeaves())
	}
	if res.TotalTasks == 0 || res.TotalOps == 0 {
		t.Error("no work recorded")
	}
	if len(res.Rounds) == 0 {
		t.Error("round log empty")
	}
	if len(res.Order) != 8 {
		t.Errorf("order length %d", len(res.Order))
	}
}

func TestSearchDifferentSeedsDifferentOrders(t *testing.T) {
	cfg := testConfig(t, 7, 150, 9)
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 2
	r1, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runSerial(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Order {
		if r1.Order[i] != r2.Order[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave the same taxon order")
	}
}

// TestSearchRecoversTrueTopology: with generous data, the search should
// recover the generating topology (or something extremely close).
func TestSearchRecoversTrueTopology(t *testing.T) {
	ds, err := simulate.New(simulate.Options{Taxa: 7, Sites: 2000, Seed: 77, MeanBranchLen: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	pat, _ := seq.Compress(ds.Alignment, seq.CompressOptions{})
	m, _ := NewDefaultModel(pat)
	cfg := Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: m, Seed: 3, RearrangeExtent: 2}
	res, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tree.ParseNewick(res.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := tree.RobinsonFoulds(got, ds.TrueTree)
	if err != nil {
		t.Fatal(err)
	}
	if d > 2 {
		t.Errorf("inferred tree at RF distance %d from truth (want <= 2)", d)
	}
}

// TestSearchMonotoneLnL: the best log-likelihood at the end of each
// smooth round must never decrease once a taxon count is reached...
// specifically the final lnL must be >= every smooth round's lnL at the
// full taxon count.
func TestSearchRoundLogShape(t *testing.T) {
	cfg := testConfig(t, 6, 120, 5)
	res, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// First round: the initial triple.
	if res.Rounds[0].Kind != RoundInit {
		t.Errorf("first round kind %v", res.Rounds[0].Kind)
	}
	// Every add round for taxon count i must have 2i-5 tasks.
	for _, r := range res.Rounds {
		if r.Kind == RoundAdd {
			want := 2*r.TaxaInTree - 5
			if len(r.Tasks) != want {
				t.Errorf("add round at %d taxa has %d tasks, want %d", r.TaxaInTree, len(r.Tasks), want)
			}
		}
		if r.Kind == RoundRearrange {
			want := 2*r.TaxaInTree - 6
			if len(r.Tasks) != want {
				t.Errorf("rearrange round at %d taxa has %d tasks, want %d (extent 1)", r.TaxaInTree, len(r.Tasks), want)
			}
		}
		if len(r.Tasks) == 0 {
			t.Errorf("round %v has no tasks", r.Kind)
		}
		for _, ts := range r.Tasks {
			if ts.Ops == 0 {
				t.Errorf("round %v has a zero-cost task", r.Kind)
			}
		}
	}
	// The last round must be a final or smooth round at full taxon count.
	last := res.Rounds[len(res.Rounds)-1]
	if last.TaxaInTree != 6 {
		t.Errorf("last round at %d taxa", last.TaxaInTree)
	}
}

// TestSearchImprovesOverNoRearrangement: allowing rearrangements can only
// help (or tie) the final likelihood for the same ordering.
func TestSearchImprovesOverNoRearrangement(t *testing.T) {
	cfg := testConfig(t, 8, 150, 21)
	cfg.RearrangeExtent = 0
	cfg.FinalExtent = 0
	plain, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RearrangeExtent = 2
	cfg.FinalExtent = 0 // defaults to RearrangeExtent in Normalize
	rearr, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rearr.LnL < plain.LnL-1e-6 {
		t.Errorf("rearrangement made things worse: %g vs %g", rearr.LnL, plain.LnL)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{}).Normalize(); err == nil {
		t.Error("empty config should fail")
	}
	cfg := testConfig(t, 6, 100, 1)
	cfg.Model = nil
	if _, err := cfg.Normalize(); err == nil {
		t.Error("missing model should fail")
	}
	cfg = testConfig(t, 6, 100, 1)
	cfg.RearrangeExtent = -1
	if _, err := cfg.Normalize(); err == nil {
		t.Error("negative extent should fail")
	}
}

func TestProgressEvents(t *testing.T) {
	cfg := testConfig(t, 6, 100, 3)
	s, err := NewSearch(cfg, serialLane(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	s.Progress = func(e ProgressEvent) { events = append(events, e) }
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if last.BestLnL != res.LnL {
		t.Errorf("last event lnL %g != final %g", last.BestLnL, res.LnL)
	}
	for _, e := range events {
		if e.BestNewick == "" {
			t.Error("event without a tree")
		}
	}
}

// TestAdaptiveExtent: the §5 "adaptive extents of tree rearrangement"
// feature completes, produces a valid tree, and does no worse than a
// fixed extent-1 run while dispatching no more tasks than a fixed
// max-extent run.
func TestAdaptiveExtent(t *testing.T) {
	cfg := testConfig(t, 10, 250, 71)
	cfg.RearrangeExtent = 1
	cfg.FinalExtent = 3

	fixed1 := cfg
	fixed1.FinalExtent = 1
	resFixed1, err := runSerial(fixed1)
	if err != nil {
		t.Fatal(err)
	}

	fixed3 := cfg
	fixed3.RearrangeExtent = 3
	resFixed3, err := runSerial(fixed3)
	if err != nil {
		t.Fatal(err)
	}

	adaptive := cfg
	adaptive.AdaptiveExtent = true
	resAdaptive, err := runSerial(adaptive)
	if err != nil {
		t.Fatal(err)
	}

	tr, err := tree.ParseNewick(resAdaptive.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if resAdaptive.LnL < resFixed1.LnL-1e-6 {
		t.Errorf("adaptive lnL %.4f worse than fixed extent-1 %.4f", resAdaptive.LnL, resFixed1.LnL)
	}
	if resAdaptive.TotalTasks > resFixed3.TotalTasks {
		t.Errorf("adaptive dispatched %d tasks, more than fixed extent-3's %d",
			resAdaptive.TotalTasks, resFixed3.TotalTasks)
	}
	// Determinism.
	resAgain, err := runSerial(adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if resAgain.BestNewick != resAdaptive.BestNewick {
		t.Error("adaptive run not deterministic")
	}
}
