// Repository benchmarks: one benchmark per paper figure/table plus the
// ablations DESIGN.md calls out. The Fig3/Fig4 benchmarks report the
// simulated cluster results (hours, speedups) through b.ReportMetric so
// `go test -bench . -benchmem` regenerates the paper's evaluation;
// EXPERIMENTS.md records the committed numbers next to the paper's.
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/experiments"
	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/spsim"
	"repro/internal/tree"
	"repro/internal/viewer"
)

// --- §1.1: the number of trees -----------------------------------------

// BenchmarkTreeCountTable regenerates the paper's tree-count examples.
func BenchmarkTreeCountTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TreeCounts()
		if err != nil {
			b.Fatal(err)
		}
		if rows[2].Formatted != "2.8 x 10^74" {
			b.Fatalf("50-taxon count %q", rows[2].Formatted)
		}
	}
}

// --- Figure 1: an unrooted tree rendering ------------------------------

// BenchmarkFig1TreeRender lays out and renders an unrooted tree.
func BenchmarkFig1TreeRender(b *testing.B) {
	ds, err := simulate.New(simulate.Options{Taxa: 24, Sites: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := viewer.NewScene([]*tree.Tree{ds.TrueTree.Clone()}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(sc.SVG(viewer.SVGOptions{Width: 800, LeafLabels: true})) == 0 {
			b.Fatal("empty SVG")
		}
	}
}

// --- Figure 2: the parallel program flow --------------------------------

// BenchmarkFig2ParallelFlow runs the full master/foreman/worker/monitor
// protocol on a small data set and checks it against the serial program.
func BenchmarkFig2ParallelFlow(b *testing.B) {
	cfg := benchConfig(b, 10, 200, 3)
	serialOut, err := mlsearch.Run(cfg, mlsearch.RunOptions{Transport: mlsearch.Serial})
	if err != nil {
		b.Fatal(err)
	}
	serial := serialOut.Results[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := mlsearch.Run(cfg, mlsearch.RunOptions{Transport: mlsearch.Local, Workers: 3, MonitorOut: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		if out.Results[0].LnL != serial.LnL {
			b.Fatal("parallel diverged from serial")
		}
	}
}

// --- Figures 3 and 4: the scaling study ---------------------------------

// benchScaling simulates one paper data set across the processor axis and
// reports the simulated hours and speedups as benchmark metrics.
func benchScaling(b *testing.B, preset simulate.PaperPreset) {
	opt, err := simulate.PaperOptions(preset, 2001)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := simulate.New(opt)
	if err != nil {
		b.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	shape := experiments.DatasetShape{
		Name: string(preset), Taxa: opt.Taxa, Sites: opt.Sites, Patterns: pat.NumPatterns(),
	}
	b.ResetTimer()
	var points []experiments.ScalingPoint
	for i := 0; i < b.N; i++ {
		points, err = experiments.Scaling(experiments.ScalingOptions{
			Shapes:  []experiments.DatasetShape{shape},
			Jumbles: 3,
			Procs:   experiments.PaperProcs,
			Extent:  5,
			Seed:    2001,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.MeanSeconds/3600, fmt.Sprintf("simhours_P%d", p.Processors))
		if p.Processors > 1 {
			b.ReportMetric(p.Speedup, fmt.Sprintf("speedup_P%d", p.Processors))
		}
	}
}

// BenchmarkFig3Fig4_50taxa reproduces the 50-taxon series of Figures 3-4.
func BenchmarkFig3Fig4_50taxa(b *testing.B) { benchScaling(b, simulate.Preset50) }

// BenchmarkFig3Fig4_101taxa reproduces the 101-taxon series.
func BenchmarkFig3Fig4_101taxa(b *testing.B) { benchScaling(b, simulate.Preset101) }

// BenchmarkFig3Fig4_150taxa reproduces the 150-taxon series.
func BenchmarkFig3Fig4_150taxa(b *testing.B) { benchScaling(b, simulate.Preset150) }

// --- §3.2 ablations ------------------------------------------------------

// BenchmarkExtentAblation compares extent 1 vs extent 5 scalability at 32
// processors (paper: extent 1 scales worse).
func BenchmarkExtentAblation(b *testing.B) {
	for _, extent := range []int{1, 5} {
		b.Run(fmt.Sprintf("extent%d", extent), func(b *testing.B) {
			var sp float64
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Scaling(experiments.ScalingOptions{
					Shapes:  []experiments.DatasetShape{{Name: "e", Taxa: 40, Sites: 500, Patterns: 400}},
					Jumbles: 2,
					Extent:  extent,
					Procs:   []int{1, 32},
					Seed:    7,
				})
				if err != nil {
					b.Fatal(err)
				}
				sp = pts[len(pts)-1].Speedup
			}
			b.ReportMetric(sp, "speedup_P32")
		})
	}
}

// BenchmarkFalloff simulates the predicted efficiency fall-off past
// 100-200 processors.
func BenchmarkFalloff(b *testing.B) {
	shape := experiments.DatasetShape{Name: "f", Taxa: 50, Sites: 1858, Patterns: 1300}
	var pts []experiments.ScalingPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Scaling(experiments.ScalingOptions{
			Shapes:  []experiments.DatasetShape{shape},
			Jumbles: 2,
			Extent:  5,
			Procs:   []int{1, 64, 128, 256},
			Seed:    11,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Processors > 1 {
			b.ReportMetric(p.Efficiency, fmt.Sprintf("efficiency_P%d", p.Processors))
		}
	}
}

// BenchmarkCompressionAblation measures the likelihood evaluation with
// and without site-pattern compression (fastDNAml's aliasing).
func BenchmarkCompressionAblation(b *testing.B) {
	ds, err := simulate.New(simulate.Options{Taxa: 20, Sites: 1000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		name := "compressed"
		if disable {
			name = "uncompressed"
		}
		b.Run(name, func(b *testing.B) {
			pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{Disable: disable})
			if err != nil {
				b.Fatal(err)
			}
			m, err := mlsearch.NewDefaultModel(pat)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := likelihood.New(m, pat)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(pat.NumPatterns()), "patterns")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.LogLikelihood(ds.TrueTree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §6: the wall-clock arithmetic --------------------------------------

// BenchmarkWallclock150 regenerates the paper's concluding numbers for
// the 150-taxon data set.
func BenchmarkWallclock150(b *testing.B) {
	var rows []experiments.WallclockRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Wallclock(experiments.Defaults)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = rows
}

// --- Figure 5: the multi-tree viewer ------------------------------------

// BenchmarkFig5Scene renders ten trees with traces, the paper's Figure 5.
func BenchmarkFig5Scene(b *testing.B) {
	var trees []*tree.Tree
	for j := 0; j < 10; j++ {
		ds, err := simulate.New(simulate.Options{Taxa: 20, Sites: 60, Seed: int64(100 + j)})
		if err != nil {
			b.Fatal(err)
		}
		trees = append(trees, ds.TrueTree)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]*tree.Tree, len(trees))
		for j := range trees {
			cp[j] = trees[j].Clone()
		}
		sc, err := viewer.NewScene(cp, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(sc.SVG(viewer.SVGOptions{Width: 1100, TraceTaxa: []int{0, 3, 7}})) == 0 {
			b.Fatal("empty SVG")
		}
	}
}

// --- Core engine micro-benchmarks ---------------------------------------

// benchConfig builds a small search configuration.
func benchConfig(b *testing.B, taxa, sites int, seed int64) mlsearch.Config {
	b.Helper()
	ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		b.Fatal(err)
	}
	return mlsearch.Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: m, Seed: 7, RearrangeExtent: 1}
}

// BenchmarkSerialSearch measures a complete real serial search.
func BenchmarkSerialSearch(b *testing.B) {
	cfg := benchConfig(b, 12, 300, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlsearch.Run(cfg, mlsearch.RunOptions{Transport: mlsearch.Serial}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLikelihoodEval measures one full-tree likelihood evaluation at
// rRNA-like scale.
func BenchmarkLikelihoodEval(b *testing.B) {
	ds, err := simulate.New(simulate.Options{Taxa: 50, Sites: 1858, Seed: 3, GammaAlpha: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := likelihood.New(m, pat)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(pat.NumPatterns()), "patterns")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.LogLikelihood(ds.TrueTree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBranchOptimization measures full branch-length smoothing.
func BenchmarkBranchOptimization(b *testing.B) {
	ds, err := simulate.New(simulate.Options{Taxa: 30, Sites: 800, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := likelihood.New(m, pat)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := ds.TrueTree.Clone()
		if _, err := eng.OptimizeBranches(tr, likelihood.OptOptions{Passes: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRearrangementEnumeration measures candidate generation at the
// paper's extent-5 setting.
func BenchmarkRearrangementEnumeration(b *testing.B) {
	ds, err := simulate.New(simulate.Options{Taxa: 40, Sites: 60, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count, err = ds.TrueTree.Rearrangements(5, func(*tree.Tree, tree.RearrangeCandidate) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(count), "candidates")
}

// BenchmarkMonitorDiscard runs a search with the monitor subscribed to the
// foreman's bus and its lines discarded.
func BenchmarkMonitorDiscard(b *testing.B) {
	cfg := benchConfig(b, 8, 150, 21)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mlsearch.Run(cfg, mlsearch.RunOptions{
			Transport: mlsearch.Local,
			Workers:   2, MonitorOut: io.Discard,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesize measures paper-scale schedule synthesis (150 taxa).
func BenchmarkSynthesize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		log, err := spsim.Synthesize(spsim.Shape{Taxa: 150, Patterns: 1071, Extent: 5, Seed: 2001})
		if err != nil {
			b.Fatal(err)
		}
		if log.TotalTasks() == 0 {
			b.Fatal("empty log")
		}
	}
}

// --- Incremental evaluation (CLV cache) ----------------------------------

// BenchmarkDownPartialCached measures a full-tree likelihood evaluation
// with the CLV cache cold (every vector recomputed, the pre-cache cost)
// versus warm after a single local branch edit (only the dirty spine
// recomputed).
func BenchmarkDownPartialCached(b *testing.B) {
	ds, err := simulate.New(simulate.Options{Taxa: 50, Sites: 1858, Seed: 3, GammaAlpha: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := likelihood.New(m, pat)
	if err != nil {
		b.Fatal(err)
	}
	tr := ds.TrueTree
	leaf := tr.LeafByTaxon(0)
	ed := tree.Edge{A: leaf, B: leaf.Nbr[0]}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.InvalidateAll()
			if _, err := eng.LogLikelihood(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-local-edit", func(b *testing.B) {
		if _, err := eng.LogLikelihood(tr); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tree.SetLen(ed.A, ed.B, 0.1+0.01*float64(i%2))
			if _, err := eng.LogLikelihood(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRoundAddCandidates measures one complete stepwise-addition
// round at 41 taxa: score inserting the last taxon at each of the 77
// edges of a 40-taxon base tree. Shared-base evaluation computes the base
// tree's directed partials once and scores each candidate in O(patterns),
// where the seed rebuilt and re-pruned every candidate tree from scratch
// (ops/candidate is the acceptance metric; see EXPERIMENTS.md).
func BenchmarkRoundAddCandidates(b *testing.B) {
	ds, err := simulate.New(simulate.Options{Taxa: 41, Sites: 500, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := likelihood.New(m, pat)
	if err != nil {
		b.Fatal(err)
	}
	base := ds.TrueTree.Clone()
	if err := base.RemoveLeaf(40); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.OptimizeBranches(base, likelihood.OptOptions{Passes: 2}); err != nil {
		b.Fatal(err)
	}
	nwk := base.Newick()
	parsed, err := tree.ParseNewick(nwk, ds.Alignment.Names)
	if err != nil {
		b.Fatal(err)
	}
	edges := parsed.InsertionEdges()
	tasks := make([]mlsearch.Task, 0, len(edges))
	for k := range edges {
		tasks = append(tasks, mlsearch.Task{
			ID: uint64(k + 1), Round: 1, BaseNewick: nwk, LocalTaxon: 40,
			InsertEdge: int32(k), Passes: 2,
			MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1,
		})
	}
	ev := mlsearch.NewEvaluator(eng, ds.Alignment.Names)
	var roundOps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration is one full round from a cold cache, including
		// the base tree's one-time partials.
		eng.InvalidateAll()
		eng.ResetOps()
		for _, t := range tasks {
			if _, err := ev.Evaluate(t); err != nil {
				b.Fatal(err)
			}
		}
		roundOps = eng.Ops()
	}
	b.ReportMetric(float64(len(tasks)), "candidates")
	b.ReportMetric(float64(roundOps), "ops_round")
	b.ReportMetric(float64(roundOps)/float64(len(tasks)), "ops_candidate")
}

// BenchmarkNewtonEdge measures single-edge Newton branch optimization on
// a warm cache: the directed partials of the edge are cache hits (they do
// not depend on the edge's own length), so the cost is the Newton
// iteration itself.
func BenchmarkNewtonEdge(b *testing.B) {
	ds, err := simulate.New(simulate.Options{Taxa: 30, Sites: 800, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := likelihood.New(m, pat)
	if err != nil {
		b.Fatal(err)
	}
	tr := ds.TrueTree
	ed := tr.InternalEdges()[0]
	if _, err := eng.LogLikelihood(tr); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.SetLen(ed.A, ed.B, 0.05)
		if _, err := eng.OptimizeEdge(tr, ed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpeculativeAblation runs the study the paper planned (§3.2):
// speculative evaluation on vs off at 64 processors.
func BenchmarkSpeculativeAblation(b *testing.B) {
	shape := experiments.DatasetShape{Name: "s", Taxa: 50, Sites: 1858, Patterns: 1300}
	for _, spec := range []bool{false, true} {
		name := "off"
		if spec {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cl := spsim.DefaultCluster(0)
			cl.Speculative = spec
			var sp float64
			for i := 0; i < b.N; i++ {
				pts, err := experiments.Scaling(experiments.ScalingOptions{
					Shapes:  []experiments.DatasetShape{shape},
					Jumbles: 2,
					Extent:  5,
					Procs:   []int{1, 64},
					Seed:    13,
					Cluster: cl,
				})
				if err != nil {
					b.Fatal(err)
				}
				sp = pts[len(pts)-1].Speedup
			}
			b.ReportMetric(sp, "speedup_P64")
		})
	}
}
