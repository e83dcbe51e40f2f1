package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestDiffNewRow: a kernel the baseline has never measured is listed as
// "new", and one the current report no longer measures as "removed" —
// neither dropped from the table nor counted as a regression — while
// the rows both reports share are still gated.
func TestDiffNewRow(t *testing.T) {
	base := obs.BenchReport{Totals: map[string]float64{"calibration_ns": 100, "a_threads_1_ns": 1000, "c_threads_1_ns": 500, "num_cpu": 2}}
	cur := obs.BenchReport{Totals: map[string]float64{"calibration_ns": 100, "a_threads_1_ns": 1050, "b_threads_1_ns": 70, "num_cpu": 2}}
	var out strings.Builder
	regs, err := diff(&out, base, cur, 0.10)
	if err != nil || len(regs) != 0 {
		t.Fatalf("diff: %v, regressions %v", err, regs)
	}
	for _, want := range []string{"| b_threads_1 | new | 70 | 70 | new |", "| a_threads_1 | 1000 | 1050 |",
		"| c_threads_1 | 500 | removed | removed | removed |", "1 kernels within 10% of baseline, 1 new, 1 removed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	cur.Totals["a_threads_1_ns"] = 1200
	if regs, _ = diff(&out, base, cur, 0.10); len(regs) != 1 || !strings.HasPrefix(regs[0], "a_threads_1:") {
		t.Errorf("20%% slower shared row: regressions %v", regs)
	}
	// Nothing in common is an error, not an all-new pass.
	if _, err := diff(&out, obs.BenchReport{Totals: map[string]float64{"c_ns": 1}}, cur, 0.10); err == nil {
		t.Error("no shared rows: want an error")
	}
}

// TestDiffNoisyRows: the measurements known to swing with unchanged code
// — the calibration loop and the down_partial_cached rows — carry the
// "repeat once" note in the table and in the regression they raise,
// while a steady row does not.
func TestDiffNoisyRows(t *testing.T) {
	base := obs.BenchReport{Totals: map[string]float64{"calibration_ns": 100, "a_threads_1_ns": 1000, "down_partial_cached_threads_1_ns": 141000}}
	cur := obs.BenchReport{Totals: map[string]float64{"calibration_ns": 100, "a_threads_1_ns": 1200, "down_partial_cached_threads_1_ns": 182000}}
	var out strings.Builder
	regs, err := diff(&out, base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"calibration 100 -> 100 ns/op; noisy — repeat once before alarming)",
		"| down_partial_cached_threads_1 (noisy — repeat once before alarming) | 141000 | 182000 |",
		"| a_threads_1 | 1000 | 1200 |"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if len(regs) != 2 || !strings.HasPrefix(regs[0], "a_threads_1:") ||
		!strings.HasPrefix(regs[1], "down_partial_cached_threads_1 (noisy — repeat once before alarming):") {
		t.Errorf("regressions %v", regs)
	}
}
