// Command benchdiff compares two kernel benchmark reports (the
// BENCH_*.json files written by make bench / TestKernelBenchJSON) and
// fails when any kernel regressed beyond the allowed fraction. It is
// the gate behind `make bench-compare`: the committed
// BENCH_baseline_kernels.json pins the kernel throughput of the tree
// the current optimization round started from, and CI diffs every
// build against it, printing a markdown before/after table for the job
// summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/buildinfo"
)

// report is the subset of obs.BenchReport benchdiff consumes.
type report struct {
	Run    string             `json:"run"`
	Totals map[string]float64 `json:"totals"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline_kernels.json", "baseline report (committed)")
		currentPath  = flag.String("current", "bench/BENCH_kernels.json", "current report (freshly measured)")
		maxRegress   = flag.Float64("max-regress", 0.10, "fail when a kernel is this fraction slower than baseline")
	)
	versionFlag := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println("benchdiff", buildinfo.String())
		return
	}
	base, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fatal(err)
	}

	regressions, err := diff(os.Stdout, base, cur, *maxRegress)
	if err != nil {
		fatal(fmt.Errorf("%w between %s and %s", err, *baselinePath, *currentPath))
	}
	if len(regressions) > 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: kernel regressions beyond the limit:")
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
}

// diff writes the before/after table of the two reports to w and returns
// one line per kernel that is more than maxRegress slower than baseline.
func diff(w io.Writer, base, cur report, maxRegress float64) ([]string, error) {
	// Machine-speed normalization: both reports carry a calibration_ns
	// measurement (a fixed dependent float64 chain — pure CPU speed).
	// Dividing current timings by the calibration ratio cancels uniform
	// host-speed drift between the baseline capture and this run, which
	// on shared runners routinely exceeds the regression limit on its
	// own. Reports without calibration compare raw.
	scale := 1.0
	if bc, cc := base.Totals["calibration_ns"], cur.Totals["calibration_ns"]; bc > 0 && cc > 0 {
		scale = bc / cc
		fmt.Fprintf(w, "machine speed vs baseline capture: %.2fx (calibration %.0f -> %.0f ns/op)\n\n", 1/scale, bc, cc)
	}

	// Every kernel the current report measured is a row. One the
	// baseline lacks (a benchmark added since the baseline was taken) is
	// shown as "new" and not gated; the next re-take picks it up.
	var keys []string
	compared := 0
	for k := range cur.Totals {
		if strings.HasSuffix(k, "_ns") && k != "calibration_ns" {
			keys = append(keys, k)
			if _, ok := base.Totals[k]; ok {
				compared++
			}
		}
	}
	if compared == 0 {
		return nil, fmt.Errorf("no comparable *_ns entries")
	}
	sort.Strings(keys)

	fmt.Fprintln(w, "| kernel | baseline ns/op | current ns/op | normalized ns/op | speedup |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|")
	var regressions []string
	for _, k := range keys {
		c := cur.Totals[k]
		name := strings.TrimSuffix(k, "_ns")
		norm := c * scale
		b, ok := base.Totals[k]
		if !ok {
			fmt.Fprintf(w, "| %s | new | %.0f | %.0f | new |\n", name, c, norm)
			continue
		}
		fmt.Fprintf(w, "| %s | %.0f | %.0f | %.0f | %.2fx |\n", name, b, c, norm, b/norm)
		if norm > b*(1+maxRegress) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op normalized (%.1f%% slower, limit %.0f%%)",
					name, b, norm, 100*(norm/b-1), 100*maxRegress))
		}
	}
	fmt.Fprintln(w)
	if len(regressions) == 0 {
		fmt.Fprintf(w, "benchdiff: %d kernels within %.0f%% of baseline", compared, 100*maxRegress)
		if n := len(keys) - compared; n > 0 {
			fmt.Fprintf(w, ", %d new", n)
		}
		fmt.Fprintln(w)
	}
	return regressions, nil
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
