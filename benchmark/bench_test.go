package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/seq"
)

// short returns tiny shapes for the tests: same code paths, a fraction
// of a second each.
func (w workload) short() workload {
	if w.Serve {
		w.Taxa, w.Sites, w.Patterns = 6, 120, 30
		return w
	}
	w.Taxa, w.Sites, w.Patterns = 8, w.Sites/10, w.Patterns/10
	return w
}

// TestTracedEngineTransparent: a search on the timing decorator returns
// the undecorated search's result bit for bit, and the decorator has
// every capability the cached engine has.
func TestTracedEngineTransparent(t *testing.T) {
	w, _ := findWorkload("serial20")
	it, err := newInstance(w.short(), 7)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runSearch(w, it, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	st := newSearchTrace()
	traced, err := runSearch(w, it, st, false)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(plain.res) != fingerprint(traced.res) {
		t.Errorf("decorated search differs:\n plain  %s\n traced %s", fingerprint(plain.res), fingerprint(traced.res))
	}
	if len(st.t.engines) == 0 {
		t.Fatal("traced run built no decorated engine")
	}

	var eng likelihood.Engine = st.t.engines[0]
	if _, ok := eng.(likelihood.Threader); !ok {
		t.Error("decorator drops Threader")
	}
	if _, ok := eng.(likelihood.Closer); !ok {
		t.Error("decorator drops Closer")
	}
	if _, ok := eng.(likelihood.PrecisionReporter); !ok {
		t.Error("decorator drops PrecisionReporter")
	}
	if _, ok := eng.(likelihood.StatsReporter); !ok {
		t.Error("decorator drops StatsReporter")
	}
	if _, ok := eng.(likelihood.OpsReporter); !ok {
		t.Error("decorator drops OpsReporter")
	}
	if _, ok := eng.(likelihood.Invalidator); !ok {
		t.Error("decorator drops Invalidator")
	}
	if _, ok := eng.(likelihood.GradientSmoother); !ok {
		t.Error("decorator drops GradientSmoother")
	}
}

// TestLayerBudgetAgainstOtherClocks checks the traced budget against
// clocks the span arithmetic does not use. The four self times telescope
// to the search span by construction, so their sum is compared with a
// wall time taken here, outside runSearch; and on the serial workloads the
// task spans, timed by the benchmark's dispatcher around Evaluate, must
// agree with the Eval times the evaluator measured itself.
func TestLayerBudgetAgainstOtherClocks(t *testing.T) {
	for _, w := range workloads {
		if w.Serve {
			continue
		}
		// Big enough that what runSearch does around the search span (two
		// ReadMemStats, joining the workers) is well under the 2 %.
		sw := w.short()
		sw.Taxa = 14
		it, err := newInstance(sw, 3)
		if err != nil {
			t.Fatal(err)
		}
		// The clocks are compared on a shared host, where any 50 ms can
		// hold a 10 ms stall: one clean attempt in three is enough.
		var complaint string
		for attempt := 0; attempt < 3; attempt++ {
			if complaint = layerBudgetComplaint(sw, it); complaint == "" {
				break
			}
		}
		if complaint != "" {
			t.Errorf("%s: %s", w.Name, complaint)
		}
	}
}

// layerBudgetComplaint runs one traced search and says what, if anything,
// is wrong with its budget.
func layerBudgetComplaint(w workload, it *instance) string {
	st := newSearchTrace()
	start := time.Now()
	out, err := runSearch(w, it, st, false)
	wall := time.Since(start)
	if err != nil {
		return err.Error()
	}
	spans := st.t.all()
	var sum time.Duration
	for l, d := range selfTimes(spans) {
		if d < 0 {
			return fmt.Sprintf("layer %s has negative self time %v", layerNames[l], d)
		}
		sum += d
	}
	if sum > wall || float64(sum) < 0.98*float64(wall) {
		return fmt.Sprintf("layer self times sum to %v, the search took %v", sum, wall)
	}
	if w.Transport == mlsearch.Serial {
		var spanned, own time.Duration
		for _, s := range spans {
			if s.Layer == layerTask {
				spanned += s.dur()
			}
		}
		for _, r := range out.res.Rounds {
			for _, task := range r.Tasks {
				own += task.Elapsed
			}
		}
		if rel := math.Abs(float64(spanned-own)) / float64(own); rel > 0.02 {
			return fmt.Sprintf("task spans total %v, the evaluator's own clock %v", spanned, own)
		}
	}
	linkParents(spans)
	for _, s := range spans {
		if s.Layer != layerSearch && s.Parent < 0 {
			return fmt.Sprintf("%s span %q has no parent", layerNames[s.Layer], s.Name)
		}
	}
	return ""
}

// TestTCPSetupTeardown loops the set-up path of the TCP workload: a
// search stopped after its first round tears the router down while a
// worker may still be receiving, and that must not fail the run.
func TestTCPSetupTeardown(t *testing.T) {
	w, _ := findWorkload("tcp2w_wide32")
	it, err := newInstance(w.short(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := runSearch(w, it, nil, true); err != nil {
			t.Fatalf("set-up run %d: %v", i, err)
		}
	}
}

func TestCovered(t *testing.T) {
	spans := []span{
		{Layer: layerTask, Start: 0, End: 10},
		{Layer: layerTask, Start: 5, End: 20},  // overlaps the first
		{Layer: layerTask, Start: 30, End: 40}, // disjoint
		{Layer: layerTask, Start: 32, End: 35}, // nested
		{Layer: layerEngine, Start: 0, End: 100},
	}
	if got := covered(spans, layerTask); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
}

// TestSmoke runs every workload traced on tiny shapes: every output
// check passes and every per-layer metric the run reports is declared.
func TestSmoke(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for _, w := range workloads {
		rep, err := runChild(w.short(), 1, 0, 0.3, true, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, rep.Failed, rep.Attempted, rep.Errors)
		}
		for _, d := range endToEnd {
			if d.Name != "results_per_s" && len(rep.Samples[d.Name]) == 0 {
				t.Errorf("%s: no %s samples", w.Name, d.Name)
			}
		}
		if rep.Ops == 0 || rep.Seconds <= 0 {
			t.Errorf("%s: %d results in %v s", w.Name, rep.Ops, rep.Seconds)
		}
		if want := w.problemCount(0.3, true); !w.Serve && rep.Ops != want {
			t.Errorf("%s: searched %d problems, the fixed list holds %d", w.Name, rep.Ops, want)
		}
		for name := range rep.Layers {
			if !declared[name] {
				t.Errorf("%s: reports undeclared per-layer metric %q", w.Name, name)
			}
		}
	}
}

// TestOpenLoopPlan: the schedule holds the stated mix, and a duplicate
// only ever repeats an original due long enough before it.
func TestOpenLoopPlan(t *testing.T) {
	pl := &planner{rng: rand.New(rand.NewSource(1)), nextSeed: -1, resident: [2]int{-1, -1}}
	var plans []jobPlan
	for _, d := range []int{2, 0, 1} {
		plans = append(plans, pl.fresh(d, 0))
	}
	warm := len(plans)
	plans = pl.openLoop(2000, plans)
	var dups, cold int
	seeds := map[int64]bool{}
	for i, p := range plans[warm:] {
		switch {
		case p.dupOf >= 0:
			dups++
			orig := plans[p.dupOf]
			if orig.dupOf >= 0 || (p.dupOf >= warm && orig.due+dupMinAge > p.due) {
				t.Fatalf("plan %d repeats plan %d, which is not an original due %v earlier", i, p.dupOf, dupMinAge)
			}
			if orig.seed != p.seed || orig.dataset != p.dataset {
				t.Fatalf("plan %d is not an exact duplicate of plan %d", i, p.dupOf)
			}
		default:
			if seeds[p.seed] || p.seed%2 == 0 {
				t.Fatalf("plan %d: seed %d reused or even", i, p.seed)
			}
			seeds[p.seed] = true
			if p.cold {
				cold++
			}
		}
	}
	if f := float64(dups) / 2000; f < 0.22 || f > 0.28 {
		t.Errorf("duplicates are %.3f of the schedule, want 0.25", f)
	}
	// Every third-dataset job finds its pod evicted; it then counts as
	// resident itself.
	if f := float64(cold) / 2000; f < 0.12 || f > 0.18 {
		t.Errorf("cold jobs are %.3f of the schedule", f)
	}
}

// TestInputsHoldTheirShape: every workload's generated alignment has
// exactly the sites and the distinct patterns its table row says, as the
// program itself reads and compresses it, and repeats for a seed.
func TestInputsHoldTheirShape(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 3; seed++ {
			in, err := newInput(w, seed)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			ds, err := in.load()
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if got := ds.pat.NumPatterns(); got != w.Patterns || len(ds.taxa) != w.Taxa {
				t.Errorf("%s seed %d: %d taxa, %d patterns; want %d, %d", w.Name, seed, len(ds.taxa), got, w.Taxa, w.Patterns)
			}
			var sites int
			for _, wt := range ds.pat.Weights {
				sites += int(wt)
			}
			if sites != w.Sites {
				t.Errorf("%s seed %d: %d sites, want %d", w.Name, seed, sites, w.Sites)
			}
			again, err := newInput(w, seed)
			if err != nil || !bytes.Equal(in.phylip, again.phylip) {
				t.Errorf("%s seed %d: input does not repeat (%v)", w.Name, seed, err)
			}
		}
	}
}

func TestSelectColumns(t *testing.T) {
	// Columns, left to right: A B A C D B A — four distinct.
	al := func() *seq.Alignment {
		return &seq.Alignment{Names: []string{"x", "y"}, Data: [][]seq.Code{{1, 2, 1, 4, 8, 2, 1}, {1, 2, 1, 4, 8, 2, 1}}}
	}
	a := al()
	// Three distinct in five columns: D is new but no longer wanted.
	if !selectColumns(a, 5, 3) || len(a.Data[0]) != 5 || string(codes(a.Data[0])) != "\x01\x02\x01\x04\x02" {
		t.Errorf("5 columns of 3 patterns: got %v", a.Data[0])
	}
	a = al()
	// Four distinct in four columns: the repeat of A has to make room.
	if !selectColumns(a, 4, 4) || string(codes(a.Data[1])) != "\x01\x02\x04\x08" {
		t.Errorf("4 columns of 4 patterns: got %v", a.Data[1])
	}
	if selectColumns(al(), 4, 5) || selectColumns(al(), 8, 4) {
		t.Error("accepted an alignment with too few distinct or too few columns")
	}
}

func codes(row []seq.Code) []byte {
	b := make([]byte, len(row))
	for i, c := range row {
		b[i] = byte(c)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecFile: BENCHMARK.json is exactly what -print-spec prints, and
// stays inside the driver's limits.
func TestSpecFile(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSpec(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from -print-spec; regenerate it")
	}
	s := spec()
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or reused", name)
		}
		seen[name] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range s.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range s.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range s.PerLayer {
		check(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, name := range countMetrics {
		if !seen[name] {
			t.Errorf("count metric %q is not declared", name)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d", s.RunSeconds)
	}
	// 4 + 22 runs per workload, each measuring run_seconds, must fit the
	// driver's 3420 s with room for set-up, checks and two builds.
	if total := (4 + 22*len(s.Workloads)) * s.RunSeconds; total > 3000 {
		t.Errorf("measuring alone takes %d s of the driver's 3420", total)
	}
}

func TestShortShapesKeepTheTransport(t *testing.T) {
	for _, w := range workloads {
		s := w.short()
		if s.Transport != w.Transport || s.Workers != w.Workers || s.Threads != w.Threads || s.Serve != w.Serve {
			t.Errorf("%s: short shape changes how the program is run", w.Name)
		}
		if !w.Serve && w.Transport == mlsearch.Serial && w.Workers != 0 {
			t.Errorf("%s: serial workload with workers", w.Name)
		}
	}
}
