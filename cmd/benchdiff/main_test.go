package main

import (
	"strings"
	"testing"
)

// TestDiffNewRow: a kernel the baseline has never measured is listed as
// "new" — neither dropped from the table nor counted as a regression —
// while the rows both reports share are still gated.
func TestDiffNewRow(t *testing.T) {
	base := report{Totals: map[string]float64{"calibration_ns": 100, "a_threads_1_ns": 1000, "num_cpu": 2}}
	cur := report{Totals: map[string]float64{"calibration_ns": 100, "a_threads_1_ns": 1050, "b_threads_1_ns": 70, "num_cpu": 2}}
	var out strings.Builder
	regs, err := diff(&out, base, cur, 0.10)
	if err != nil || len(regs) != 0 {
		t.Fatalf("diff: %v, regressions %v", err, regs)
	}
	for _, want := range []string{"| b_threads_1 | new | 70 | 70 | new |", "| a_threads_1 | 1000 | 1050 |", "1 kernels within 10% of baseline, 1 new"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	cur.Totals["a_threads_1_ns"] = 1200
	if regs, _ = diff(&out, base, cur, 0.10); len(regs) != 1 || !strings.HasPrefix(regs[0], "a_threads_1:") {
		t.Errorf("20%% slower shared row: regressions %v", regs)
	}
	// Nothing in common is an error, not an all-new pass.
	if _, err := diff(&out, report{Totals: map[string]float64{"c_ns": 1}}, cur, 0.10); err == nil {
		t.Error("no shared rows: want an error")
	}
}
