package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/likelihood"
	"repro/internal/mlsearch"
)

// benchmarkSpec is BENCHMARK.json. It is generated from the tables in
// workloads.go (-print-spec), so the file and the program cannot drift.
type benchmarkSpec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specLoad  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures, in BENCHMARK.json and by
// default.
const runSeconds = 20

func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specLoad{w.Name, w.Why})
	}
	return s
}

func writeSpec(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(spec())
}

// hostInfo is recorded in the output, never in BENCHMARK.json.
func hostInfo() map[string]any {
	cpuinfo, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: no flags
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"cpu_flags":  simdFlags(string(cpuinfo)),
	}
}

// simdFlags picks the vector-unit flags out of /proc/cpuinfo text.
func simdFlags(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		name, value, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		var keep []string
		for _, f := range strings.Fields(value) {
			if strings.HasPrefix(f, "sse") || strings.HasPrefix(f, "avx") || f == "fma" {
				keep = append(keep, f)
			}
		}
		return strings.Join(keep, " ")
	}
	return ""
}

// pass is one untraced and one traced run of every workload.
type pass map[string]*workloadReport

type workloadReport struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// runPass runs the workloads in the given order, printing every metric
// by name and unit as it goes.
func runPass(r runner, order []workload, seed int64, seconds float64) (pass, error) {
	p := pass{}
	for _, w := range order {
		e2e, err := r.run(w, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		layers, err := r.run(w, seed, seconds, true)
		if err != nil {
			return nil, err
		}
		p[w.Name] = &workloadReport{e2e, layers}
		printWorkload(w, e2e, layers)
	}
	return p, nil
}

func printWorkload(w workload, e2e, layers *runResult) {
	fmt.Printf("== %s\n", w.Name)
	for _, d := range endToEnd {
		fmt.Printf("  %-34s %14.6g %-6s (n=%d, regression bound %.0f%%)\n",
			d.Name, e2e.Metrics[d.Name].Value, d.Unit, e2e.samples[d.Name], 100*d.Bound)
	}
	attempted, failed := e2e.Attempted+layers.Attempted, e2e.Failed+layers.Failed
	fmt.Printf("  %-34s %14.6g %-6s (%d of %d operations)\n", "failed_frac", float64(failed)/float64(attempted), "ratio", failed, attempted)
	for _, d := range perLayer {
		fmt.Printf("  %-34s %14.6g %s\n", d.Name, layers.Metrics[d.Name].Value, d.Unit)
	}
	for _, e := range append(e2e.errors, layers.errors...) {
		fmt.Printf("  FAILED: %s\n", e)
	}
}

func (p pass) correct() bool {
	for _, w := range p {
		if !w.EndToEnd.Correct || !w.PerLayer.Correct {
			return false
		}
	}
	return true
}

// summary is the last thing a full run prints. It claims no gain: it is
// the baseline later claims are measured against.
type summary struct {
	Host      map[string]any `json:"host"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Workloads pass           `json:"workloads"`
	Correct   bool           `json:"correct"`
	Claim     any            `json:"claim"`
}

func runAll(r runner, seed int64, seconds float64) error {
	p, err := runPass(r, workloads, seed, seconds)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(os.Stdout).Encode(summary{Host: hostInfo(), Seed: seed, Seconds: seconds, Workloads: p, Correct: p.correct()}); err != nil {
		return err
	}
	if !p.correct() {
		return errIncorrect
	}
	return nil
}

// runSelfcheck runs every workload twice, the second time in reverse
// order, and fails if the two disagree: any end-to-end metric by more
// than its own bound, any count metric at all.
func runSelfcheck(r runner, seed int64, seconds float64) error {
	a, err := runPass(r, workloads, seed, seconds)
	if err != nil {
		return err
	}
	reversed := slices.Clone(workloads)
	slices.Reverse(reversed)
	b, err := runPass(r, reversed, seed, seconds)
	if err != nil {
		return err
	}
	var bad []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a[w.Name].EndToEnd.Metrics[d.Name].Value, b[w.Name].EndToEnd.Metrics[d.Name].Value
			if rel := math.Abs(x-y) / math.Min(x, y); rel > d.Bound {
				bad = append(bad, fmt.Sprintf("%s on %s: %g vs %g differ by %.1f%%, bound %.0f%%", d.Name, w.Name, x, y, 100*rel, 100*d.Bound))
			}
		}
		for _, name := range countMetrics {
			if name == "likelihood.ops" && w.Workers > 1 {
				// Which worker's CLV cache a task lands on, and so how
				// much it recomputes, depends on the schedule.
				continue
			}
			x, y := a[w.Name].PerLayer.Metrics[name].Value, b[w.Name].PerLayer.Metrics[name].Value
			if x != y {
				bad = append(bad, fmt.Sprintf("%s on %s: %g vs %g (counts must repeat exactly)", name, w.Name, x, y))
			}
		}
	}
	ok := len(bad) == 0 && a.correct() && b.correct()
	for _, line := range bad {
		fmt.Println("SELFCHECK:", line)
	}
	fmt.Printf("selfcheck ok=%v\n", ok)
	if !ok {
		return fmt.Errorf("selfcheck failed (%d disagreements)", len(bad))
	}
	return nil
}

// modeRow is one line of the -modes report.
type modeRow struct {
	SmoothMode string  `json:"smooth_mode"`
	Precision  string  `json:"precision"`
	Threads    int     `json:"threads"`
	Reps       int     `json:"reps"`
	WallS      float64 `json:"time_to_result_s"`
	LnL        float64 `json:"lnl"`
}

// runModes times serial20 under every smoothing mode, precision and
// thread count, once, in this process. It is a map for ROADMAP items
// 2–3, not a gated measurement.
func runModes(seed int64, outDir string) error {
	w, _ := findWorkload("serial20")
	in, err := newInput(w, seed)
	if err != nil {
		return err
	}
	ds, err := in.load()
	if err != nil {
		return err
	}
	const reps = 5
	var rows []modeRow
	for _, smooth := range []likelihood.SmoothMode{likelihood.SmoothSweep, likelihood.SmoothGradient} {
		for _, prec := range []likelihood.Precision{likelihood.Float64, likelihood.Float32} {
			for _, threads := range []int{1, 2} {
				cfg := ds.config(w, seed)
				cfg.SmoothMode, cfg.Precision, cfg.Threads = smooth, prec, threads
				var walls []float64
				var lnL float64
				for i := 0; i < reps; i++ {
					start := time.Now()
					out, err := mlsearch.Run(cfg, mlsearch.RunOptions{})
					if err != nil {
						return err
					}
					walls = append(walls, time.Since(start).Seconds())
					lnL = out.Results[0].LnL
				}
				row := modeRow{smooth.String(), prec.String(), threads, reps, median(walls), lnL}
				rows = append(rows, row)
				fmt.Printf("%-9s %-8s threads=%d  %.4f s  lnL %.6f\n", row.SmoothMode, row.Precision, row.Threads, row.WallS, row.LnL)
			}
		}
	}
	data, err := json.MarshalIndent(map[string]any{"host": hostInfo(), "workload": w.Name, "seed": seed, "rows": rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "modes.json"), append(data, '\n'), 0o644)
}
