package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	if got := Mean(xs); got != 4 {
		t.Errorf("Mean = %g", got)
	}
	if got := StdDev(xs); math.Abs(got-3.5355) > 1e-3 {
		t.Errorf("StdDev = %g", got)
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty-input conventions broken")
	}
}

func TestSpeedupEfficiency(t *testing.T) {
	s := Speedup(100, 25)
	if s != 4 {
		t.Errorf("Speedup = %g", s)
	}
	if e := Efficiency(s, 8); e != 0.5 {
		t.Errorf("Efficiency = %g", e)
	}
	if Speedup(10, 0) != 0 || Efficiency(1, 0) != 0 {
		t.Error("zero-division conventions broken")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[float64]string{
		5:         "5.0s",
		90:        "90.0s",
		600:       "10.0m",
		7200:      "2.0h",
		86400 * 8: "8.0d",
	}
	for in, want := range cases {
		if got := FormatDuration(in); got != want {
			t.Errorf("FormatDuration(%g) = %q, want %q", in, got, want)
		}
	}
	if got := FormatDuration(-600); got != "-10.0m" {
		t.Errorf("negative = %q", got)
	}
}

// TestTableAlignment: a GitHub markdown table — header row, one |---|
// per column, one row per Add, every cell between pipes.
func TestTableAlignment(t *testing.T) {
	tbl := &Table{Headers: []string{"P", "Time", "Speedup"}}
	tbl.Add("1", "100.0s", "1.00")
	tbl.Add("64", "2.5s", "40.00")
	want := "| P | Time | Speedup |\n" +
		"|---|---|---|\n" +
		"| 1 | 100.0s | 1.00 |\n" +
		"| 64 | 2.5s | 40.00 |\n"
	if got := tbl.String(); got != want {
		t.Errorf("table:\n%s\nwant:\n%s", got, want)
	}
}

func TestLogLogChartContainsData(t *testing.T) {
	s := []Series{
		{Label: "50 taxa", X: []float64{1, 4, 16, 64}, Y: []float64{1000, 900, 200, 60}, Marker: 'a'},
		{Label: "150 taxa", X: []float64{1, 4, 16, 64}, Y: []float64{9000, 8000, 1800, 500}, Marker: 'c'},
	}
	out := LogLogChart("Figure 3", "Processors", "Seconds", s, 60, 16)
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "Processors") {
		t.Errorf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "50 taxa") || !strings.Contains(out, "150 taxa") {
		t.Errorf("legend missing:\n%s", out)
	}
	if strings.Count(out, "a") < 3 || strings.Count(out, "c") < 3 {
		t.Errorf("markers missing:\n%s", out)
	}
}

func TestLogLogChartDegenerate(t *testing.T) {
	out := LogLogChart("empty", "x", "y", nil, 40, 10)
	if !strings.Contains(out, "no data") {
		t.Errorf("degenerate chart: %q", out)
	}
	// Non-positive points are skipped, not fatal.
	out = LogLogChart("t", "x", "y", []Series{{Label: "s", X: []float64{0, 1}, Y: []float64{5, -2}}}, 40, 10)
	if !strings.Contains(out, "no data") {
		t.Errorf("all-invalid series should report no data, got:\n%s", out)
	}
}

// TestStatsQuickProperties: Mean is linear; StdDev is translation
// invariant.
func TestStatsQuickProperties(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				v = 1
			}
			xs = append(xs, v)
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e8 {
			shift = 1
		}
		shifted := make([]float64, len(xs))
		for i := range xs {
			shifted[i] = xs[i] + shift
		}
		m1, m2 := Mean(xs), Mean(shifted)
		if math.Abs((m1+shift)-m2) > 1e-6*(1+math.Abs(m2)) {
			return false
		}
		s1, s2 := StdDev(xs), StdDev(shifted)
		return math.Abs(s1-s2) < 1e-6*(1+math.Abs(s1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
