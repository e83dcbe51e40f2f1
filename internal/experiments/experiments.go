// Package experiments regenerates every table and figure of the paper's
// evaluation (and the ablations DESIGN.md calls out). Studies lists them
// and cmd/scaling is a thin CLI over that table; the repository
// benchmarks call the same entry points, so "the numbers in
// EXPERIMENTS.md" always have a single implementation.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
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

// paperTreeCounts are the three counts the paper quotes in §1.1.
var paperTreeCounts = map[int]string{50: "2.8 x 10^74", 100: "1.7 x 10^182", 150: "4.2 x 10^301"}

// RenderTreeCounts renders the tree-count table beside the paper's values.
func RenderTreeCounts(rows []TreeCountRow) string {
	tbl := &stats.Table{Headers: []string{"taxa", "paper", "unrooted trees", "log10"}}
	for _, r := range rows {
		tbl.Add(fmt.Sprintf("%d", r.Taxa), paperTreeCounts[r.Taxa], r.Formatted, fmt.Sprintf("%.1f", r.Log10))
	}
	return "Number of bifurcating unrooted trees (paper §1.1)\n\n" + tbl.String()
}

// DatasetShape captures what the scaling experiments need to know about
// one of the paper's data sets.
type DatasetShape struct {
	Name     string
	Taxa     int
	Sites    int
	Patterns int
}

// paperShape generates one paper-dimension synthetic data set and
// reports its compressed pattern count.
func paperShape(seed int64, preset simulate.PaperPreset) (DatasetShape, error) {
	opt, err := simulate.PaperOptions(preset, seed)
	if err != nil {
		return DatasetShape{}, err
	}
	ds, err := simulate.New(opt)
	if err != nil {
		return DatasetShape{}, err
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		return DatasetShape{}, err
	}
	return DatasetShape{Name: string(preset), Taxa: opt.Taxa, Sites: opt.Sites, Patterns: pat.NumPatterns()}, nil
}

// ScalingOptions configure the Figure 3/4 reproduction.
type ScalingOptions struct {
	// Shapes are the data sets.
	Shapes []DatasetShape
	// Jumbles is the number of random orderings averaged per point
	// (the paper used 10; at least 1).
	Jumbles int
	// Procs is the processor axis.
	Procs []int
	// Extent is the rearrangement setting (paper: 5).
	Extent int
	// Seed drives the synthetic schedules.
	Seed int64
	// Cluster is the machine model (zero = spsim.DefaultCluster; its
	// Processors field is ignored).
	Cluster spsim.Cluster
	// Cost overrides the task cost model (zero = default).
	Cost spsim.CostModel
}

// ScalingPoint is one (dataset, processor count) cell of Figures 3/4.
type ScalingPoint struct {
	Dataset    string
	Processors int
	// MeanSeconds averages the jumbles' simulated wall times.
	MeanSeconds float64
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
	if opt.Jumbles < 1 {
		return nil, fmt.Errorf("experiments: %d jumbles, want at least 1", opt.Jumbles)
	}
	if opt.Cluster == (spsim.Cluster{}) {
		opt.Cluster = spsim.DefaultCluster(0)
	}
	var out []ScalingPoint
	for _, shape := range opt.Shapes {
		logs := make([]*spsim.RunLog, opt.Jumbles)
		for j := 0; j < opt.Jumbles; j++ {
			var err error
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
				Speedup:      sp,
				Efficiency:   stats.Efficiency(sp, p),
				IdleFraction: stats.Mean(idle),
			})
		}
	}
	return out, nil
}

// pivot renders points as one markdown table: a row per data set, a
// column per processor count (the serial one only when serial is set),
// cell(point) in each cell. Points come data set by data set over one
// processor axis, as Scaling returns them.
func pivot(corner string, points []ScalingPoint, serial bool, cell func(ScalingPoint) string) string {
	tbl := &stats.Table{Headers: []string{corner}}
	var row []string
	for _, p := range points {
		if p.Processors == 1 && !serial {
			continue
		}
		if row == nil || row[0] != p.Dataset {
			if row != nil {
				tbl.Add(row...)
			}
			row = []string{p.Dataset}
		}
		if len(tbl.Rows) == 0 {
			tbl.Headers = append(tbl.Headers, fmt.Sprintf("P=%d", p.Processors))
		}
		row = append(row, cell(p))
	}
	if row != nil {
		tbl.Add(row...)
	}
	return tbl.String()
}

// chart draws y against processors on log-log axes, the extra series
// first and then one per data set, inside a ``` fence so the figure
// renders in markdown.
func chart(title, ylabel string, points []ScalingPoint, y func(ScalingPoint) float64, extra ...stats.Series) string {
	series := extra
	index := map[string]int{}
	const markers = "abcde"
	for _, p := range points {
		i, ok := index[p.Dataset]
		if !ok {
			i = len(series)
			index[p.Dataset] = i
			series = append(series, stats.Series{Label: p.Dataset, Marker: markers[(i-len(extra))%len(markers)]})
		}
		series[i].X = append(series[i].X, float64(p.Processors))
		series[i].Y = append(series[i].Y, y(p))
	}
	return "```\n" + stats.LogLogChart(title, "processors", ylabel, series, 64, 18) + "```\n"
}

func speedup(p ScalingPoint) string { return fmt.Sprintf("%.2f", p.Speedup) }

// RenderFig3 renders the wall-time view (paper Figure 3): the mean time
// per data set and processor count, and a log-log chart of it.
func RenderFig3(points []ScalingPoint) string {
	return "Figure 3: time to complete analysis (mean over orderings)\n\n" +
		pivot("dataset, time", points, true, func(p ScalingPoint) string { return stats.FormatDuration(p.MeanSeconds) }) +
		"\n" + chart("time vs processors", "seconds", points, func(p ScalingPoint) float64 { return p.MeanSeconds })
}

// RenderFig4 renders the speedup view (paper Figure 4): the speedup over
// the serial program, and a log-log chart of it with the perfect
// scaling line.
func RenderFig4(points []ScalingPoint) string {
	maxP := 1.0
	for _, p := range points {
		maxP = max(maxP, float64(p.Processors))
	}
	perfect := stats.Series{Label: "perfect scaling", Marker: '.', X: []float64{1, maxP}, Y: []float64{1, maxP}}
	return "Figure 4: speedup vs the serial program\n\n" +
		pivot("dataset, speedup", points, false, speedup) +
		"\n" + chart("speedup vs processors", "speedup", points, func(p ScalingPoint) float64 { return p.Speedup }, perfect)
}

// speedups renders a titled table of speedups over the serial program
// (the extent, speculative and measured studies).
func speedups(title string) func([]ScalingPoint) string {
	return func(points []ScalingPoint) string {
		return title + "\n\n" + pivot("dataset, speedup", points, false, speedup)
	}
}

// efficiencies renders a titled table of efficiencies, speedup / P (the
// fall-off study).
func efficiencies(title string) func([]ScalingPoint) string {
	return func(points []ScalingPoint) string {
		return title + "\n\n" + pivot("dataset, efficiency", points, false, func(p ScalingPoint) string {
			return fmt.Sprintf("%.2f", p.Efficiency)
		})
	}
}

// paperScaling runs Scaling on the paper's three data sets.
func paperScaling(p Params) ([]ScalingPoint, error) {
	var shapes []DatasetShape
	for _, preset := range []simulate.PaperPreset{simulate.Preset50, simulate.Preset101, simulate.Preset150} {
		shape, err := paperShape(p.Seed, preset)
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, shape)
	}
	return Scaling(ScalingOptions{Shapes: shapes, Jumbles: p.Jumbles, Procs: p.Procs, Extent: p.Extent, Seed: p.Seed})
}

// variant is one row of a study on the 50-taxon set: its label and the
// options that are its own.
type variant struct {
	label string
	opt   ScalingOptions
}

// fiftyTaxa runs Scaling on the paper's 50-taxon set once per variant,
// under p's seed, jumbles and processor axis, naming each row
// "50taxa <label>".
func fiftyTaxa(p Params, variants ...variant) ([]ScalingPoint, error) {
	shape, err := paperShape(p.Seed, simulate.Preset50)
	if err != nil {
		return nil, err
	}
	var all []ScalingPoint
	for _, v := range variants {
		row := shape
		row.Name += " " + v.label
		v.opt.Shapes, v.opt.Jumbles, v.opt.Procs, v.opt.Seed = []DatasetShape{row}, p.Jumbles, p.Procs, p.Seed
		pts, err := Scaling(v.opt)
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
// extent 5, each dispatched per candidate and in slices, under p's seed,
// jumbles and processor axis.
func SliceComparison(p Params) ([]ScalingPoint, error) {
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
				Shapes: []DatasetShape{ds}, Jumbles: p.Jumbles, Procs: p.Procs,
				Extent: shape.extent, Seed: p.Seed, Cluster: cl, Cost: TodayCostModel(),
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
	return "Guided slices against per-candidate dispatch, today's costs (§3.2 fall-off)\n\n" + pivot("dispatch, efficiency / idle", points, false, func(p ScalingPoint) string {
		return fmt.Sprintf("%.2f / %.2f", p.Efficiency, p.IdleFraction)
	})
}

// WallclockRow is one of the §6 wall-clock claims, as the paper states
// it and as simulated.
type WallclockRow struct {
	Label string
	Paper string
	Value string
}

// Wallclock reproduces the paper's concluding arithmetic for the
// 150-taxon data set under p's seed and extent: serial days per
// ordering, 64-processor hours per ordering, and the 200-ordering totals
// ("about a month running continually on 64 processors").
func Wallclock(p Params) ([]WallclockRow, error) {
	shape, err := paperShape(p.Seed, simulate.Preset150)
	if err != nil {
		return nil, err
	}
	log, err := spsim.Synthesize(spsim.Shape{
		Taxa: shape.Taxa, Patterns: shape.Patterns, Extent: p.Extent, Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}
	cl := spsim.DefaultCluster(1)
	serial, err := cl.Simulate(log)
	if err != nil {
		return nil, err
	}
	cl64 := spsim.DefaultCluster(64)
	par, err := cl64.Simulate(log)
	if err != nil {
		return nil, err
	}
	const year = 365 * 86400
	return []WallclockRow{
		{"serial, one ordering", "~9 days (192 h quoted in §3.2)", stats.FormatDuration(serial.TotalSeconds)},
		{"64 processors, one ordering", "< 4 hours", stats.FormatDuration(par.TotalSeconds)},
		{"200 orderings, serial", "~5 years", fmt.Sprintf("%.1f years", 200*serial.TotalSeconds/year)},
		{"200 orderings, 64 processors", "~1 month", stats.FormatDuration(200 * par.TotalSeconds)},
		{"speedup at 64 processors", "~48-54 (implied)", fmt.Sprintf("%.1fx", serial.TotalSeconds/par.TotalSeconds)},
	}, nil
}

// RenderWallclock renders the §6 claims beside their simulated values.
func RenderWallclock(rows []WallclockRow) string {
	tbl := &stats.Table{Headers: []string{"scenario (150 taxa)", "paper", "simulated"}}
	for _, r := range rows {
		tbl.Add(r.Label, r.Paper, r.Value)
	}
	return "Wall-clock arithmetic (paper §6)\n\n" + tbl.String()
}

// FlowDemo runs a small real parallel search with the monitor attached
// and writes the message-flow summary (the living version of Figure 2).
func FlowDemo(w io.Writer, seed int64) error {
	ds, err := simulate.New(simulate.Options{Taxa: 8, Sites: 200, Seed: seed})
	if err != nil {
		return err
	}
	inf, err := core.Infer(ds.Alignment, core.Options{
		Spec: core.Spec{Seed: seed, Extent: 1},
		Run:  mlsearch.RunOptions{Transport: mlsearch.Local, Workers: 3, MonitorOut: w},
	})
	if err != nil {
		return err
	}
	res := inf.Best.Search
	fmt.Fprintf(w, "\nparallel program flow (paper Fig 2): master -> foreman -> workers\n")
	fmt.Fprintf(w, "rounds: %d   tasks: %d   lnL: %.4f\n", len(res.Rounds), res.TotalTasks, res.LnL)
	fmt.Fprintf(w, "dispatches: %d   results: %d\n", inf.Monitor.Dispatched, inf.Monitor.Completed)
	for _, worker := range inf.Monitor.Workers {
		fmt.Fprintf(w, "  worker rank %d evaluated %d trees\n", worker.Rank, worker.Tasks)
	}
	return nil
}
