// Package experiments regenerates every table and figure of the paper's
// evaluation (and the ablations DESIGN.md calls out). cmd/scaling is a
// thin CLI over this package, and the repository benchmarks call the same
// entry points, so "the numbers in EXPERIMENTS.md" always have a single
// implementation.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/mlsearch"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/spsim"
	"repro/internal/stats"
	"repro/internal/tree"
)

// PaperProcs is the processor axis of Figures 3 and 4.
var PaperProcs = []int{1, 4, 8, 16, 32, 64}

// TreeCountRow is one row of the paper's §1.1 tree-count examples.
type TreeCountRow struct {
	Taxa      int
	Formatted string
	Log10     float64
}

// TreeCounts reproduces §1.1: the number of unrooted bifurcating trees
// for 50, 100, and 150 taxa (plus context rows).
func TreeCounts() ([]TreeCountRow, error) {
	var rows []TreeCountRow
	for _, n := range []int{10, 20, 50, 100, 150} {
		s, err := tree.FormatTopologyCount(n)
		if err != nil {
			return nil, err
		}
		lg, err := tree.NumTopologiesLog10(n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TreeCountRow{Taxa: n, Formatted: s, Log10: lg})
	}
	return rows, nil
}

// RenderTreeCounts renders the tree-count table.
func RenderTreeCounts(rows []TreeCountRow) string {
	tbl := &stats.Table{Headers: []string{"taxa", "unrooted trees", "log10"}}
	for _, r := range rows {
		tbl.Add(fmt.Sprintf("%d", r.Taxa), r.Formatted, fmt.Sprintf("%.1f", r.Log10))
	}
	return "Number of bifurcating unrooted trees (paper §1.1)\n" + tbl.String()
}

// DatasetShape captures what the scaling experiments need to know about
// one of the paper's data sets.
type DatasetShape struct {
	Name     string
	Taxa     int
	Sites    int
	Patterns int
}

// PaperShapes generates the three paper-dimension synthetic data sets and
// reports their compressed pattern counts.
func PaperShapes(seed int64) ([]DatasetShape, error) {
	var out []DatasetShape
	for _, p := range []simulate.PaperPreset{simulate.Preset50, simulate.Preset101, simulate.Preset150} {
		opt, err := simulate.PaperOptions(p, seed)
		if err != nil {
			return nil, err
		}
		ds, err := simulate.New(opt)
		if err != nil {
			return nil, err
		}
		pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
		if err != nil {
			return nil, err
		}
		out = append(out, DatasetShape{
			Name:     string(p),
			Taxa:     opt.Taxa,
			Sites:    opt.Sites,
			Patterns: pat.NumPatterns(),
		})
	}
	return out, nil
}

// ScalingOptions configure the Figure 3/4 reproduction.
type ScalingOptions struct {
	// Shapes are the data sets (nil = the paper's three, seeded).
	Shapes []DatasetShape
	// Jumbles is the number of random orderings averaged per point
	// (the paper used 10).
	Jumbles int
	// Procs is the processor axis (nil = PaperProcs).
	Procs []int
	// Extent is the rearrangement setting (paper: 5).
	Extent int
	// Seed drives the synthetic schedules.
	Seed int64
	// Cluster is the machine model (zero Processors field is ignored).
	Cluster spsim.Cluster
	// Cost overrides the task cost model (zero = default).
	Cost spsim.CostModel
}

func (o ScalingOptions) withDefaults() (ScalingOptions, error) {
	if o.Jumbles < 1 {
		o.Jumbles = 10
	}
	if len(o.Procs) == 0 {
		o.Procs = PaperProcs
	}
	if o.Extent == 0 {
		o.Extent = 5
	}
	if o.Seed == 0 {
		o.Seed = 2001
	}
	if o.Cluster == (spsim.Cluster{}) {
		o.Cluster = spsim.DefaultCluster(0)
	}
	if len(o.Shapes) == 0 {
		shapes, err := PaperShapes(o.Seed)
		if err != nil {
			return o, err
		}
		o.Shapes = shapes
	}
	return o, nil
}

// ScalingPoint is one (dataset, processor count) cell of Figures 3/4.
type ScalingPoint struct {
	Dataset    string
	Processors int
	// MeanSeconds averages the jumbles' simulated wall times.
	MeanSeconds float64
	// StdSeconds is the spread over jumbles.
	StdSeconds float64
	// Speedup is mean serial seconds / mean seconds.
	Speedup float64
	// Efficiency is Speedup / Processors.
	Efficiency float64
	// IdleFraction averages the workers' idle share over the jumbles.
	IdleFraction float64
}

// Scaling simulates the paper's scaling study: for each data set,
// synthesize one schedule per jumble and sweep the processor axis
// ("For each data set, the same ten randomizations were analyzed for each
// number of processors", §3.1 — the same jumble logs are replayed at
// every P).
func Scaling(opt ScalingOptions) ([]ScalingPoint, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	var out []ScalingPoint
	for _, shape := range opt.Shapes {
		logs := make([]*spsim.RunLog, opt.Jumbles)
		for j := 0; j < opt.Jumbles; j++ {
			logs[j], err = spsim.Synthesize(spsim.Shape{
				Taxa:     shape.Taxa,
				Patterns: shape.Patterns,
				Extent:   opt.Extent,
				Seed:     opt.Seed + int64(1000*j) + int64(shape.Taxa),
				Cost:     opt.Cost,
			})
			if err != nil {
				return nil, err
			}
		}
		serialMean := 0.0
		for _, p := range opt.Procs {
			cl := opt.Cluster
			cl.Processors = p
			var times, idle []float64
			for _, log := range logs {
				res, err := cl.Simulate(log)
				if err != nil {
					return nil, err
				}
				times = append(times, res.TotalSeconds)
				idle = append(idle, res.IdleFraction)
			}
			mean := stats.Mean(times)
			if p == 1 {
				serialMean = mean
			}
			sp := 0.0
			if serialMean > 0 {
				sp = serialMean / mean
			}
			out = append(out, ScalingPoint{
				Dataset:      shape.Name,
				Processors:   p,
				MeanSeconds:  mean,
				StdSeconds:   stats.StdDev(times),
				Speedup:      sp,
				Efficiency:   stats.Efficiency(sp, p),
				IdleFraction: stats.Mean(idle),
			})
		}
	}
	return out, nil
}

// RenderFig3 renders the wall-time view (paper Figure 3): a table plus an
// ASCII log-log chart of time against processors.
func RenderFig3(points []ScalingPoint) string {
	var b strings.Builder
	b.WriteString("Figure 3: time to complete analysis (average over orderings)\n")
	tbl := &stats.Table{Headers: []string{"dataset", "procs", "time", "stddev"}}
	seriesMap := map[string]*stats.Series{}
	var order []string
	markers := []byte{'a', 'b', 'c', 'd', 'e'}
	for _, p := range points {
		tbl.Add(p.Dataset, fmt.Sprintf("%d", p.Processors),
			stats.FormatDuration(p.MeanSeconds), stats.FormatDuration(p.StdSeconds))
		s, ok := seriesMap[p.Dataset]
		if !ok {
			s = &stats.Series{Label: p.Dataset, Marker: markers[len(order)%len(markers)]}
			seriesMap[p.Dataset] = s
			order = append(order, p.Dataset)
		}
		s.X = append(s.X, float64(p.Processors))
		s.Y = append(s.Y, p.MeanSeconds)
	}
	b.WriteString(tbl.String())
	b.WriteByte('\n')
	var series []stats.Series
	for _, name := range order {
		series = append(series, *seriesMap[name])
	}
	b.WriteString(stats.LogLogChart("time vs processors", "processors", "seconds", series, 64, 18))
	return b.String()
}

// RenderFig4 renders the speedup view (paper Figure 4) with the perfect
// scaling reference line.
func RenderFig4(points []ScalingPoint) string {
	var b strings.Builder
	b.WriteString("Figure 4: scaling ratios vs the serial program\n")
	tbl := &stats.Table{Headers: []string{"dataset", "procs", "speedup", "efficiency"}}
	seriesMap := map[string]*stats.Series{}
	var order []string
	markers := []byte{'a', 'b', 'c', 'd', 'e'}
	maxP := 1.0
	for _, p := range points {
		tbl.Add(p.Dataset, fmt.Sprintf("%d", p.Processors),
			fmt.Sprintf("%.2f", p.Speedup), fmt.Sprintf("%.3f", p.Efficiency))
		s, ok := seriesMap[p.Dataset]
		if !ok {
			s = &stats.Series{Label: p.Dataset, Marker: markers[len(order)%len(markers)]}
			seriesMap[p.Dataset] = s
			order = append(order, p.Dataset)
		}
		s.X = append(s.X, float64(p.Processors))
		s.Y = append(s.Y, p.Speedup)
		if float64(p.Processors) > maxP {
			maxP = float64(p.Processors)
		}
	}
	b.WriteString(tbl.String())
	b.WriteByte('\n')
	series := []stats.Series{{Label: "perfect scaling", Marker: '.',
		X: []float64{1, maxP}, Y: []float64{1, maxP}}}
	for _, name := range order {
		series = append(series, *seriesMap[name])
	}
	b.WriteString(stats.LogLogChart("speedup vs processors", "processors", "speedup", series, 64, 18))
	return b.String()
}

// Falloff extends the sweep past the paper's 64 processors to show the
// predicted efficiency fall-off at 100-200 processors (§3.2: "the
// scalability will likely fall off at between 100 and 200 processors").
func Falloff(seed int64, jumbles int) ([]ScalingPoint, error) {
	return Scaling(ScalingOptions{
		Jumbles: jumbles,
		Procs:   []int{1, 16, 64, 96, 128, 192, 256, 384, 512},
		Seed:    seed,
	})
}

// ExtentComparison is the §3.2 ablation: extent 1 scales worse than
// extent 5 "because there is a smaller total amount of work done between
// synchronizations". It returns points labeled by extent for one dataset.
func ExtentComparison(seed int64, jumbles int) ([]ScalingPoint, error) {
	shapes, err := PaperShapes(seed)
	if err != nil {
		return nil, err
	}
	shape := shapes[0] // the 50-taxon set
	var all []ScalingPoint
	for _, extent := range []int{1, 5} {
		pts, err := Scaling(ScalingOptions{
			Shapes:  []DatasetShape{{Name: fmt.Sprintf("%s extent=%d", shape.Name, extent), Taxa: shape.Taxa, Sites: shape.Sites, Patterns: shape.Patterns}},
			Jumbles: jumbles,
			Extent:  extent,
			Seed:    seed,
		})
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	return all, nil
}

// SpeculativeComparison performs the study the paper planned (§3.2):
// does Ceron-style speculative evaluation — overlapping a rearrangement
// round with the next round when no improvement is (correctly) predicted
// — enhance fastDNAml's scalability? It returns points for the 50-taxon
// workload with speculation off and on.
func SpeculativeComparison(seed int64, jumbles int) ([]ScalingPoint, error) {
	shapes, err := PaperShapes(seed)
	if err != nil {
		return nil, err
	}
	shape := shapes[0]
	var all []ScalingPoint
	for _, spec := range []bool{false, true} {
		cl := spsim.DefaultCluster(0)
		cl.Speculative = spec
		name := shape.Name + " speculative=off"
		if spec {
			name = shape.Name + " speculative=on"
		}
		pts, err := Scaling(ScalingOptions{
			Shapes:  []DatasetShape{{Name: name, Taxa: shape.Taxa, Sites: shape.Sites, Patterns: shape.Patterns}},
			Jumbles: jumbles,
			Extent:  5,
			Seed:    seed,
			Cluster: cl,
		})
		if err != nil {
			return nil, err
		}
		all = append(all, pts...)
	}
	return all, nil
}

// TodayCostModel is the synthetic task cost model re-fitted against this
// repository's engine as it stands (EXPERIMENTS.md "Calibration"):
// cache-backed shared-base candidates are far cheaper than the paper's
// full-tree evaluations, and relatively more uneven.
func TodayCostModel() spsim.CostModel {
	return spsim.CostModel{
		QuickUnitsPerTaxonPattern:  261,
		SmoothUnitsPerTaxonPattern: 642,
		Sigma:                      0.58,
		NewickBytesPerTaxon:        22,
	}
}

// TodayCluster is this repository's runtime on the benchmark host, from
// the traced tcp2w_wide32 runs in EXPERIMENTS.md: 0.46 ns per work unit,
// a loopback frame about 45 µs each way, some 16 µs of a worker's time
// per message outside the engine, 0.17 µs of master time per generated
// byte, no monitor, no start-up to speak of.
func TodayCluster() spsim.Cluster {
	return spsim.Cluster{
		UnitTime:           0.46e-9,
		DispatchLatency:    45e-6,
		ReturnLatency:      45e-6,
		WorkerTaskOverhead: 16e-6,
		MasterByteTime:     0.17e-6,
		RoundBarrier:       50e-6,
	}
}

// SliceProcs is the processor axis of the slice study: P = 4 is the two
// workers of the local2w20 and tcp2w_wide32 benchmark workloads.
var SliceProcs = []int{1, 4, 8, 16, 32, 64, 128, 256}

// SliceComparison predicts what dispatching guided slices instead of
// single candidates does to the §3.2 fall-off, with today's costs: the
// two benchmark shapes at extent 1, and the paper's 150-taxon set at
// extent 5, each dispatched per candidate and in slices.
func SliceComparison(seed int64, jumbles int) ([]ScalingPoint, error) {
	shapes := []struct {
		DatasetShape
		extent int
	}{
		{DatasetShape{Name: "20x300 e1", Taxa: 20, Patterns: 300}, 1},
		{DatasetShape{Name: "32x100 e1", Taxa: 32, Patterns: 100}, 1},
		{DatasetShape{Name: "150x1269 e5", Taxa: 150, Patterns: 1269}, 5},
	}
	var all []ScalingPoint
	for _, shape := range shapes {
		for _, sliced := range []bool{false, true} {
			cl := TodayCluster()
			cl.Slices = sliced
			ds := shape.DatasetShape
			ds.Name += " per-candidate"
			if sliced {
				ds.Name = shape.Name + " sliced"
			}
			pts, err := Scaling(ScalingOptions{
				Shapes: []DatasetShape{ds}, Jumbles: jumbles, Procs: SliceProcs,
				Extent: shape.extent, Seed: seed, Cluster: cl, Cost: TodayCostModel(),
			})
			if err != nil {
				return nil, err
			}
			all = append(all, pts...)
		}
	}
	return all, nil
}

// RenderSlices tabulates SliceComparison: per data set and dispatch mode,
// efficiency / worker idle fraction at each processor count.
func RenderSlices(points []ScalingPoint) string {
	var b strings.Builder
	b.WriteString("| dispatch, efficiency / idle |")
	for _, p := range SliceProcs[1:] {
		fmt.Fprintf(&b, " P=%d |", p)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(SliceProcs)-1) + "\n")
	last := ""
	for _, pt := range points {
		if pt.Processors == 1 {
			continue
		}
		if pt.Dataset != last {
			if last != "" {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "| %s |", pt.Dataset)
			last = pt.Dataset
		}
		fmt.Fprintf(&b, " %.2f / %.2f |", pt.Efficiency, pt.IdleFraction)
	}
	b.WriteString("\n")
	return b.String()
}

// WallclockRow summarizes the §6 wall-clock claims.
type WallclockRow struct {
	Label string
	Value string
}

// Wallclock reproduces the paper's concluding arithmetic for the
// 150-taxon data set: serial days per ordering, 64-processor hours per
// ordering, and the 200-ordering totals ("about a month running
// continually on 64 processors").
func Wallclock(seed int64) ([]WallclockRow, string, error) {
	shapes, err := PaperShapes(seed)
	if err != nil {
		return nil, "", err
	}
	shape := shapes[2] // 150 taxa
	log, err := spsim.Synthesize(spsim.Shape{
		Taxa: shape.Taxa, Patterns: shape.Patterns, Extent: 5, Seed: seed,
	})
	if err != nil {
		return nil, "", err
	}
	cl := spsim.DefaultCluster(1)
	serial, err := cl.Simulate(log)
	if err != nil {
		return nil, "", err
	}
	cl64 := spsim.DefaultCluster(64)
	par, err := cl64.Simulate(log)
	if err != nil {
		return nil, "", err
	}
	rows := []WallclockRow{
		{"serial, one ordering", stats.FormatDuration(serial.TotalSeconds)},
		{"serial, 200 orderings", stats.FormatDuration(200 * serial.TotalSeconds)},
		{"64 processors, one ordering", stats.FormatDuration(par.TotalSeconds)},
		{"64 processors, 200 orderings", stats.FormatDuration(200 * par.TotalSeconds)},
		{"speedup at 64 processors", fmt.Sprintf("%.1fx", serial.TotalSeconds/par.TotalSeconds)},
	}
	tbl := &stats.Table{Headers: []string{"scenario (150 taxa)", "simulated"}}
	for _, r := range rows {
		tbl.Add(r.Label, r.Value)
	}
	note := "Paper §6: ~9 days serial per ordering; <4 h on 64 processors;\n" +
		"200 orderings ~ 5 years serial vs ~ 1 month on 64 processors.\n"
	return rows, note + tbl.String(), nil
}

// FlowDemo runs a small real parallel search with the monitor attached
// and writes the message-flow summary (the living version of Figure 2).
func FlowDemo(w io.Writer, seed int64) error {
	ds, err := simulate.New(simulate.Options{Taxa: 8, Sites: 200, Seed: seed})
	if err != nil {
		return err
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		return err
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		return err
	}
	cfg := mlsearch.Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: m, Seed: seed, RearrangeExtent: 1}
	out, err := mlsearch.Run(cfg, mlsearch.RunOptions{
		Transport:   mlsearch.Local,
		Workers:     3,
		WithMonitor: true,
		MonitorOut:  w,
	})
	if err != nil {
		return err
	}
	res := out.Results[0]
	fmt.Fprintf(w, "\nparallel program flow (paper Fig 2): master -> foreman -> workers\n")
	fmt.Fprintf(w, "rounds: %d   tasks: %d   lnL: %.4f\n", len(res.Rounds), res.TotalTasks, res.LnL)
	fmt.Fprintf(w, "dispatches: %d   results: %d\n", out.Monitor.Dispatches, out.Monitor.Results)
	for worker, n := range out.Monitor.TasksPerWorker {
		fmt.Fprintf(w, "  worker rank %d evaluated %d trees\n", worker, n)
	}
	return nil
}
