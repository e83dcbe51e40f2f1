package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/spsim"
)

func TestTreeCountsTable(t *testing.T) {
	rows, err := TreeCounts()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTreeCounts(rows)
	// The paper's quoted values must appear.
	for _, want := range []string{"2.8 x 10^74", "1.7 x 10^182", "4.2 x 10^301"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// smallShapes avoids regenerating the full paper data sets in unit tests.
func smallShapes() []DatasetShape {
	return []DatasetShape{
		{Name: "miniA", Taxa: 30, Sites: 400, Patterns: 300},
		{Name: "miniB", Taxa: 45, Sites: 300, Patterns: 250},
	}
}

func TestScalingReproducesPaperShape(t *testing.T) {
	pts, err := Scaling(ScalingOptions{
		Shapes:  smallShapes(),
		Jumbles: 3,
		Extent:  5,
		Seed:    99,
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ScalingPoint{}
	for _, p := range pts {
		byKey[p.Dataset+string(rune('0'+p.Processors%10))] = p
	}
	for _, shape := range smallShapes() {
		var serial, four, sixteen, sixtyFour ScalingPoint
		for _, p := range pts {
			if p.Dataset != shape.Name {
				continue
			}
			switch p.Processors {
			case 1:
				serial = p
			case 4:
				four = p
			case 16:
				sixteen = p
			case 64:
				sixtyFour = p
			}
		}
		if serial.Speedup != 1 {
			t.Errorf("%s: serial speedup %g", shape.Name, serial.Speedup)
		}
		if four.Speedup >= 1 {
			t.Errorf("%s: 4-proc speedup %g, want < 1", shape.Name, four.Speedup)
		}
		if sixtyFour.Speedup <= sixteen.Speedup {
			t.Errorf("%s: speedup not growing 16->64", shape.Name)
		}
		if sixtyFour.MeanSeconds >= serial.MeanSeconds {
			t.Errorf("%s: 64 procs not faster than serial", shape.Name)
		}
	}
	// Rendering includes tables and charts.
	f3 := RenderFig3(pts)
	f4 := RenderFig4(pts)
	if !strings.Contains(f3, "Figure 3") || !strings.Contains(f3, "miniA") {
		t.Error("Fig 3 rendering incomplete")
	}
	if !strings.Contains(f4, "perfect scaling") {
		t.Error("Fig 4 rendering missing the perfect-scaling line")
	}
}

func TestExtentComparisonShape(t *testing.T) {
	// Use small custom shapes through Scaling directly to keep the test
	// fast; the extent machinery is the same.
	mk := func(extent int) []ScalingPoint {
		pts, err := Scaling(ScalingOptions{
			Shapes:  []DatasetShape{{Name: "m", Taxa: 30, Sites: 300, Patterns: 250}},
			Jumbles: 3,
			Extent:  extent,
			Procs:   []int{1, 32},
			Seed:    7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	e1 := mk(1)
	e5 := mk(5)
	var s1, s5 float64
	for _, p := range e1 {
		if p.Processors == 32 {
			s1 = p.Speedup
		}
	}
	for _, p := range e5 {
		if p.Processors == 32 {
			s5 = p.Speedup
		}
	}
	if s5 <= s1 {
		t.Errorf("extent 5 speedup %.2f should exceed extent 1 speedup %.2f (paper §3.2)", s5, s1)
	}
}

func TestMeasuredSweepShape(t *testing.T) {
	pts, err := MeasuredSweep(10, 150, 1, 3, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Speedup != 1 {
		t.Errorf("serial speedup %g", pts[0].Speedup)
	}
	// The overhead-free measured sweep puts 4 processors (1 worker) at
	// parity with serial; it must never beat it.
	if pts[1].Speedup > 1+1e-9 {
		t.Errorf("4-proc speedup %g, want <= 1", pts[1].Speedup)
	}
	if pts[2].Speedup <= pts[1].Speedup {
		t.Error("16 procs not faster than 4")
	}
}

func TestCalibrateProducesSaneModel(t *testing.T) {
	cal, err := Calibrate(5)
	if err != nil {
		t.Fatal(err)
	}
	c := cal.Cost
	if c.QuickUnitsPerTaxonPattern <= 0 || c.SmoothUnitsPerTaxonPattern <= 0 {
		t.Fatalf("non-positive coefficients: %+v", c)
	}
	if c.SmoothUnitsPerTaxonPattern <= c.QuickUnitsPerTaxonPattern {
		t.Errorf("full smoothing (%.0f) should cost more than quick scoring (%.0f)",
			c.SmoothUnitsPerTaxonPattern, c.QuickUnitsPerTaxonPattern)
	}
	if c.Sigma <= 0 || c.Sigma > 3 {
		t.Errorf("sigma %.3f implausible", c.Sigma)
	}
	if !strings.Contains(cal.Report, "calibration") {
		t.Error("report missing")
	}
	// The committed defaults should be within an order of magnitude of a
	// fresh fit (they were derived the same way).
	def := spsim.DefaultCostModel()
	ratio := c.QuickUnitsPerTaxonPattern / def.QuickUnitsPerTaxonPattern
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("fitted quick coefficient %.1f far from committed default %.1f",
			c.QuickUnitsPerTaxonPattern, def.QuickUnitsPerTaxonPattern)
	}
}

func TestWallclockRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 150-taxon dataset")
	}
	rows, text, err := Wallclock(2001)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if !strings.Contains(text, "64 processors") {
		t.Error("rendering incomplete")
	}
}

func TestFlowDemo(t *testing.T) {
	var buf bytes.Buffer
	if err := FlowDemo(&buf, 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "parallel program flow") || !strings.Contains(out, "worker rank") {
		t.Errorf("flow demo output incomplete:\n%s", out)
	}
}

// TestThroughputPartitioning: the §3.2 trade-off — the serial farm wins
// raw campaign throughput, but parallel-within-ordering partitions
// deliver the first result orders of magnitude sooner.
func TestThroughputPartitioning(t *testing.T) {
	pts, err := Throughput(ThroughputOptions{
		Shape:      DatasetShape{Name: "m", Taxa: 40, Sites: 500, Patterns: 400},
		Orderings:  200,
		Processors: 64,
		Extent:     5,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bestCount int
	var full, farm ThroughputPoint
	for _, p := range pts {
		if p.Best {
			bestCount++
		}
		if p.Groups == 1 {
			full = p
		}
		if p.Groups == 64 {
			farm = p
		}
	}
	if bestCount != 1 {
		t.Errorf("%d best partitions", bestCount)
	}
	if full.Groups != 1 || farm.Groups != 64 {
		t.Fatalf("missing extremes: %+v", pts)
	}
	// First result arrives much sooner with full parallelism.
	if full.FirstResultSeconds >= farm.FirstResultSeconds/5 {
		t.Errorf("full parallel first result %.0fs not much sooner than serial farm %.0fs",
			full.FirstResultSeconds, farm.FirstResultSeconds)
	}
	// Rendering sanity.
	out := RenderThroughput(pts, 200, 64)
	if !strings.Contains(out, "best throughput") {
		t.Errorf("rendering incomplete:\n%s", out)
	}
}

// TestSliceComparisonShape: with today's costs, slicing is predicted
// never to cost efficiency, and to cut worker idle time at P = 4 on the
// small-task shape (32 taxa x 100 patterns), where a message is a large
// share of a task.
func TestSliceComparisonShape(t *testing.T) {
	pts, err := SliceComparison(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	at := map[string]ScalingPoint{}
	for _, p := range pts {
		at[fmt.Sprintf("%s P=%d", p.Dataset, p.Processors)] = p
	}
	for _, ds := range []string{"20x300 e1", "32x100 e1", "150x1269 e5"} {
		for _, p := range SliceProcs[1:] {
			per, sliced := at[fmt.Sprintf("%s per-candidate P=%d", ds, p)], at[fmt.Sprintf("%s sliced P=%d", ds, p)]
			if per.Efficiency == 0 || sliced.Efficiency < per.Efficiency-0.005 {
				t.Errorf("%s P=%d: sliced efficiency %.3f, per-candidate %.3f", ds, p, sliced.Efficiency, per.Efficiency)
			}
		}
	}
	if per, sliced := at["32x100 e1 per-candidate P=4"], at["32x100 e1 sliced P=4"]; sliced.IdleFraction >= per.IdleFraction {
		t.Errorf("32x100 P=4: sliced idle %.3f, per-candidate %.3f", sliced.IdleFraction, per.IdleFraction)
	}
	if out := RenderSlices(pts); strings.Count(out, "\n") != 8 || !strings.Contains(out, "P=256") {
		t.Errorf("table:\n%s", out)
	}
}
