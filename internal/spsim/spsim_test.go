package spsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mlsearch"
)

func testCluster(p int) Cluster {
	return Cluster{
		Processors:      p,
		Monitor:         true,
		UnitTime:        1e-6,
		DispatchLatency: 1e-4,
		ReturnLatency:   1e-4,
		MasterByteTime:  1e-6,
		RoundBarrier:    1e-3,
		Startup:         0.5,
	}
}

func smallLog() *RunLog {
	return &RunLog{
		Label: "test",
		Rounds: []Round{
			{Kind: "init", TaskUnits: []float64{1000}, GenBytes: 100},
			{Kind: "add", TaskUnits: []float64{500, 700, 900}, GenBytes: 300},
			{Kind: "rearrange", TaskUnits: []float64{400, 400, 400, 400, 800, 1200}, GenBytes: 600},
		},
	}
}

func TestWorkersAccounting(t *testing.T) {
	cases := []struct {
		p       int
		monitor bool
		want    int
		ok      bool
	}{
		{1, true, 1, true},   // serial
		{4, true, 1, true},   // paper: 4 procs, 3 control, 1 worker
		{64, true, 61, true}, // paper: 64 procs
		{3, false, 1, true},
		{3, true, 0, false},
		{0, false, 0, false},
	}
	for _, c := range cases {
		cl := testCluster(c.p)
		cl.Monitor = c.monitor
		got, err := cl.Workers()
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("P=%d monitor=%v: got %d,%v want %d", c.p, c.monitor, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("P=%d monitor=%v: expected error", c.p, c.monitor)
		}
	}
}

// TestFourProcessorsSlowerThanSerial reproduces the paper's §3.2
// observation: "the overhead of communications and processing tasks
// causes the parallel code running on four processors to be slower than
// the serial code running on one processor. In both cases just one
// processor is devoted to the worker process."
func TestFourProcessorsSlowerThanSerial(t *testing.T) {
	log := smallLog()
	serial, err := testCluster(1).Simulate(log)
	if err != nil {
		t.Fatal(err)
	}
	four, err := testCluster(4).Simulate(log)
	if err != nil {
		t.Fatal(err)
	}
	if four.TotalSeconds <= serial.TotalSeconds {
		t.Errorf("4 processors (%g s) should be slower than serial (%g s)", four.TotalSeconds, serial.TotalSeconds)
	}
}

// TestSimulateBounds: for any worker count, the makespan of each round is
// at least the largest task and at least the mean load, and the whole run
// is no faster than compute/workers and no slower than the serial run
// plus all overheads.
func TestSimulateBounds(t *testing.T) {
	f := func(seed int64) bool {
		log := synthQuick(t, 10+int(seed%7), 50)
		for _, p := range []int{4, 8, 16, 32} {
			cl := testCluster(p)
			w, _ := cl.Workers()
			res, err := cl.Simulate(log)
			if err != nil {
				return false
			}
			// Lower bound: compute work spread perfectly over workers.
			if res.TotalSeconds < res.ComputeSeconds/float64(w) {
				return false
			}
			// Sanity: idle fraction in [0, 1].
			if res.IdleFraction < -1e-9 || res.IdleFraction > 1 {
				return false
			}
			if len(res.RoundSeconds) != len(log.Rounds) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func synthQuick(t interface{ Fatal(...interface{}) }, taxa, patterns int) *RunLog {
	log, err := Synthesize(Shape{Taxa: taxa, Patterns: patterns, Extent: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestMoreWorkersNeverSlower: adding processors must not increase the
// simulated time (the foreman discipline is work-conserving).
func TestMoreWorkersNeverSlower(t *testing.T) {
	log, err := Synthesize(Shape{Taxa: 30, Patterns: 200, Extent: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, p := range []int{4, 8, 16, 32, 64} {
		res, err := testCluster(p).Simulate(log)
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalSeconds > prev*1.0000001 {
			t.Errorf("P=%d slower than fewer processors: %g > %g", p, res.TotalSeconds, prev)
		}
		prev = res.TotalSeconds
	}
}

// TestSweepShape reproduces the qualitative content of Figures 3 and 4:
// speedup grows strongly from 8 to 64 processors, and efficiency
// eventually falls off as the worker count approaches the per-round task
// counts (paper §3.2 predicts fall-off at 100-200 processors for these
// data set sizes).
func TestSweepShape(t *testing.T) {
	log, err := Synthesize(Shape{Taxa: 50, Patterns: 600, Extent: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cl := DefaultCluster(0)
	points, err := cl.Sweep(log, []int{1, 4, 8, 16, 32, 64, 128, 256})
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]ScalingPoint{}
	for _, pt := range points {
		byP[pt.Processors] = pt
	}
	if byP[1].Speedup != 1 {
		t.Errorf("serial speedup %g, want 1", byP[1].Speedup)
	}
	if byP[4].Speedup >= 1 {
		t.Errorf("4-processor speedup %g, want < 1 (paper Fig 4)", byP[4].Speedup)
	}
	// Near-linear relative scaling 16 -> 64 (paper: "relative speedups
	// from 16 through 64 processors are quite good").
	rel := byP[64].Speedup / byP[16].Speedup
	if rel < 2.4 {
		t.Errorf("speedup(64)/speedup(16) = %g, want >= 2.4 (near-linear x4)", rel)
	}
	// Fall-off: going 128 -> 256 should gain much less than 2x.
	relHigh := byP[256].Speedup / byP[128].Speedup
	if relHigh > 1.7 {
		t.Errorf("speedup(256)/speedup(128) = %g, expected clear fall-off", relHigh)
	}
	if byP[64].Speedup < 8 {
		t.Errorf("64-processor speedup %g unreasonably low", byP[64].Speedup)
	}
	if byP[64].Speedup > 61 {
		t.Errorf("64-processor speedup %g exceeds worker count", byP[64].Speedup)
	}
}

func TestSynthesizeStructure(t *testing.T) {
	taxa := 12
	log, err := Synthesize(Shape{Taxa: taxa, Patterns: 100, Extent: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, r := range log.Rounds {
		switch r.Kind {
		case "add":
			adds++
			i := adds + 3 // taxa in tree after this addition
			if len(r.TaskUnits) != 2*i-5 {
				t.Errorf("add round %d has %d tasks, want %d", adds, len(r.TaskUnits), 2*i-5)
			}
		case "smooth", "init":
			if len(r.TaskUnits) != 1 {
				t.Errorf("%s round with %d tasks", r.Kind, len(r.TaskUnits))
			}
		}
		for _, u := range r.TaskUnits {
			if u <= 0 {
				t.Errorf("non-positive task units in %s round", r.Kind)
			}
		}
		if r.GenBytes <= 0 {
			t.Errorf("round %s has no master bytes", r.Kind)
		}
	}
	if adds != taxa-3 {
		t.Errorf("%d add rounds, want %d", adds, taxa-3)
	}
	// Determinism.
	log2, _ := Synthesize(Shape{Taxa: taxa, Patterns: 100, Extent: 1, Seed: 5})
	if log.TotalTasks() != log2.TotalTasks() || log.TotalUnits() != log2.TotalUnits() {
		t.Error("same seed synthesized different logs")
	}
	log3, _ := Synthesize(Shape{Taxa: taxa, Patterns: 100, Extent: 1, Seed: 6})
	if log.TotalUnits() == log3.TotalUnits() {
		t.Error("different seeds synthesized identical logs (suspicious)")
	}
}

func TestSynthesizeErrors(t *testing.T) {
	if _, err := Synthesize(Shape{Taxa: 3, Patterns: 10}); err == nil {
		t.Error("3 taxa should fail")
	}
	if _, err := Synthesize(Shape{Taxa: 10, Patterns: 0}); err == nil {
		t.Error("0 patterns should fail")
	}
}

func TestCandidateCounterNNI(t *testing.T) {
	c := newCandidateCounter(1)
	for _, n := range []int{4, 10, 50, 150} {
		if got := c.count(n, 1); got != 2*n-6 {
			t.Errorf("count(%d, 1) = %d, want %d", n, got, 2*n-6)
		}
	}
}

func TestCandidateCounterGrowth(t *testing.T) {
	c := newCandidateCounter(1)
	// Larger extent reaches at least as many candidates.
	for _, n := range []int{10, 20, 30} {
		prev := 0
		for extent := 1; extent <= 4; extent++ {
			got := c.count(n, extent)
			if got < prev {
				t.Errorf("count(%d, %d) = %d < count at extent-1 %d", n, extent, got, prev)
			}
			prev = got
		}
	}
	// Extrapolated counts keep growing with taxa.
	if c.count(150, 5) <= c.count(50, 5) {
		t.Error("extrapolated counts should grow with taxa")
	}
}

func TestFromSearchResult(t *testing.T) {
	res := &mlsearch.SearchResult{
		Rounds: []mlsearch.RoundStats{
			{Kind: mlsearch.RoundInit, Tasks: []mlsearch.TaskStat{{Ops: 100}}, GenBytes: 40},
			{Kind: mlsearch.RoundAdd, Tasks: []mlsearch.TaskStat{{Ops: 10}, {Ops: 20}, {Ops: 30}}, GenBytes: 120},
		},
	}
	log := FromSearchResult(res, "measured")
	if len(log.Rounds) != 2 {
		t.Fatalf("%d rounds", len(log.Rounds))
	}
	if log.Rounds[0].Kind != "init" || log.Rounds[1].Kind != "add" {
		t.Errorf("kinds = %v %v", log.Rounds[0].Kind, log.Rounds[1].Kind)
	}
	if log.TotalUnits() != 160 || log.TotalTasks() != 4 {
		t.Errorf("units=%g tasks=%d", log.TotalUnits(), log.TotalTasks())
	}
}

// TestSerialHasNoCommCost: the serial simulation must charge no
// dispatch/return latency.
func TestSerialHasNoCommCost(t *testing.T) {
	log := smallLog()
	res, err := testCluster(1).Simulate(log)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommSeconds != 0 {
		t.Errorf("serial comm = %g, want 0", res.CommSeconds)
	}
	// Serial total = startup + compute + gen + barriers.
	want := 0.5 + res.ComputeSeconds + res.MasterSeconds + float64(len(log.Rounds))*1e-3
	if math.Abs(res.TotalSeconds-want) > 1e-9 {
		t.Errorf("serial total %g, want %g", res.TotalSeconds, want)
	}
}

// TestSpeculativeMerging: correctly-predicted rounds merge with their
// successors — work is conserved, rounds shrink, and the run never slows
// down.
func TestSpeculativeMerging(t *testing.T) {
	log, err := Synthesize(Shape{Taxa: 25, Patterns: 200, Extent: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, r := range log.Rounds {
		if r.SpeculativeNext {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("no speculative rounds synthesized")
	}
	merged := mergeSpeculative(log.Rounds)
	if len(merged) >= len(log.Rounds) {
		t.Errorf("merge did not reduce rounds: %d -> %d", len(log.Rounds), len(merged))
	}
	var before, after float64
	for _, r := range log.Rounds {
		for _, u := range r.TaskUnits {
			before += u
		}
	}
	for _, r := range merged {
		if r.SpeculativeNext {
			t.Error("merged rounds must not remain speculative")
		}
		for _, u := range r.TaskUnits {
			after += u
		}
	}
	if math.Abs(before-after) > 1e-6 {
		t.Errorf("speculation changed total work: %g -> %g", before, after)
	}

	for _, p := range []int{8, 32, 64} {
		off := testCluster(p)
		on := testCluster(p)
		on.Speculative = true
		resOff, err := off.Simulate(log)
		if err != nil {
			t.Fatal(err)
		}
		resOn, err := on.Simulate(log)
		if err != nil {
			t.Fatal(err)
		}
		if resOn.TotalSeconds > resOff.TotalSeconds*1.0000001 {
			t.Errorf("P=%d: speculation slowed the run: %g -> %g", p, resOff.TotalSeconds, resOn.TotalSeconds)
		}
	}
	// Serial runs ignore speculation.
	s1 := testCluster(1)
	s2 := testCluster(1)
	s2.Speculative = true
	r1, _ := s1.Simulate(log)
	r2, _ := s2.Simulate(log)
	if r1.TotalSeconds != r2.TotalSeconds {
		t.Error("speculation changed the serial time")
	}
}

// TestSlicedDispatch: with Slices the foreman sends the guided share of a
// round per message. The work is conserved, the message count falls from
// two per task to two per slice (slice sizes by the foreman's rule), a
// foreman-bound round — many workers, cheap tasks, dear messages — gets
// faster, and without Slices nothing changes.
func TestSlicedDispatch(t *testing.T) {
	units := make([]float64, 59)
	for i := range units {
		units[i] = 100 + float64(i%7)*30
	}
	log := &RunLog{Rounds: []Round{{Kind: "add", TaskUnits: units}}}
	for _, p := range []int{4, 10, 66} {
		per := testCluster(p)
		per.Monitor = false
		sliced := per
		sliced.Slices = true
		a, err := per.Simulate(log)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sliced.Simulate(log)
		if err != nil {
			t.Fatal(err)
		}
		w := p - 2
		slices := 0
		for left := len(units); left > 0; slices++ {
			left -= (left + 2*w - 1) / (2 * w)
		}
		msg := per.DispatchLatency + per.ReturnLatency
		if want := float64(len(units)) * msg; math.Abs(a.CommSeconds-want) > 1e-12 {
			t.Errorf("P=%d per-task: foreman occupied %g s, want %g", p, a.CommSeconds, want)
		}
		if want := float64(slices) * msg; math.Abs(b.CommSeconds-want) > 1e-12 {
			t.Errorf("P=%d sliced: foreman occupied %g s, want %g for %d slices", p, b.CommSeconds, want, slices)
		}
		if math.Abs(a.ComputeSeconds-b.ComputeSeconds) > 1e-12 {
			t.Errorf("P=%d: slicing changed the work: %g vs %g", p, b.ComputeSeconds, a.ComputeSeconds)
		}
	}
	// 64 workers on tasks a fifth of a message: the serial foreman is the
	// bottleneck one task at a time.
	per := testCluster(66)
	per.Monitor = false
	per.UnitTime = 1e-7
	sliced := per
	sliced.Slices = true
	big := &RunLog{Rounds: []Round{{Kind: "rearrange", TaskUnits: make([]float64, 600)}}}
	for i := range big.Rounds[0].TaskUnits {
		big.Rounds[0].TaskUnits[i] = 400
	}
	a, _ := per.Simulate(big)
	b, _ := sliced.Simulate(big)
	if b.TotalSeconds >= a.TotalSeconds {
		t.Errorf("foreman-bound round: sliced %g s, per-task %g s", b.TotalSeconds, a.TotalSeconds)
	}
}
