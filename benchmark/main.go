// Command benchmark measures complete fastDNAml searches and the
// fastdnamld service end to end, and decomposes one traced run of each
// workload into a per-layer budget. BENCHMARK.json at the root of the
// repository is its contract; README.md here explains the workloads and
// how to read the numbers.
//
// A measured run is split over several short-lived child processes of
// this same binary: on the reference host much of the timing noise is
// shared by the searches of one process (README, "How a run is measured"), so
// pooling the repetitions of several processes is what makes a run's
// median repeat.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// childReport is what one measuring process hands back: raw samples, so
// the parent can pool them before taking medians.
type childReport struct {
	Samples map[string][]float64 `json:"samples"`
	// Ops results were completed in Seconds of measuring.
	Ops     int     `json:"ops"`
	Seconds float64 `json:"seconds"`
	// Attempted and Failed count operations: searches, jobs, baseline
	// runs. A failed output check fails the operation it checked.
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

func newChildReport() *childReport {
	return &childReport{Samples: map[string][]float64{}}
}

func (r *childReport) sample(name string, v float64) {
	r.Samples[name] = append(r.Samples[name], v)
}

func (r *childReport) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// runChild measures one workload in this process.
func runChild(w workload, seed int64, index int, seconds float64, trace bool, outDir string) (*childReport, error) {
	if w.Serve {
		return serveChild(w, seed, index, seconds, trace, outDir)
	}
	return searchChild(w, seed, index, seconds, trace, outDir)
}

// metricValue is one entry of the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the driver's result line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	errors  []string
	samples map[string]int
}

// runner spawns measuring children of this binary.
type runner struct {
	exe    string
	outDir string
}

func (r runner) child(w workload, seed int64, index int, seconds float64, trace bool) (*childReport, error) {
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(r.exe,
		"-child", "-index", strconv.Itoa(index), "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg,
		"-out", r.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("measuring process for %s: %w", w.Name, err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return nil, fmt.Errorf("measuring process for %s printed %q: %w", w.Name, out, err)
	}
	return &rep, nil
}

// run measures one workload: untraced over measureProcs processes for the
// end-to-end metrics, or traced in one process for the layer budget.
func (r runner) run(w workload, seed int64, seconds float64, trace bool) (*runResult, error) {
	procs := measureProcs
	if trace {
		procs = 1
	}
	pooled := newChildReport()
	res := &runResult{Metrics: map[string]metricValue{}, samples: map[string]int{}}
	for i := 0; i < procs; i++ {
		rep, err := r.child(w, seed, i, seconds/float64(procs), trace)
		if err != nil {
			return nil, err
		}
		for name, xs := range rep.Samples {
			pooled.Samples[name] = append(pooled.Samples[name], xs...)
		}
		pooled.Ops += rep.Ops
		pooled.Seconds += rep.Seconds
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		res.errors = append(res.errors, rep.Errors...)
		if i == 0 {
			pooled.Layers = rep.Layers
		}
	}
	res.Correct = res.Failed == 0
	if trace {
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{pooled.Layers[d.Name], d.Unit}
		}
		return res, nil
	}
	values := map[string]float64{
		"time_to_result_s": median(pooled.Samples["time_to_result_s"]),
		"alloc_mb":         median(pooled.Samples["alloc_mb"]),
		"setup_s":          median(pooled.Samples["setup_s"]),
	}
	if pooled.Seconds > 0 {
		values["results_per_s"] = float64(pooled.Ops) / pooled.Seconds
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		res.samples[d.Name] = len(pooled.Samples[d.Name])
	}
	res.samples["results_per_s"] = pooled.Ops
	return res, nil
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	outDir    string
	selfcheck bool
	modes     bool
	printSpec bool
	// child and index are how a parent addresses one of its measuring
	// processes.
	child bool
	index int
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, untraced then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "seconds one run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.outDir, "out", "out", "directory for traces, reports and scratch data")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run every workload twice in alternating order and compare")
	flag.BoolVar(&o.modes, "modes", false, "one-shot report of serial20 under smoothing, precision and thread modes")
	flag.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json from the tables in workloads.go")
	flag.BoolVar(&o.child, "child", false, "internal: measure in this process and print raw samples")
	flag.IntVar(&o.index, "index", 0, "internal: which measuring process of the run this is")
	flag.Parse()
	o.trace = trace != 0
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("output check failed")

func realMain(o options) error {
	if o.printSpec {
		return writeSpec(os.Stdout)
	}
	outDir, err := filepath.Abs(o.outDir)
	if err != nil {
		return err
	}
	w, known := findWorkload(o.workload)
	if o.workload != "" && !known {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.child {
		rep, err := runChild(w, o.seed, o.index, o.seconds, o.trace, outDir)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	r := runner{exe: exe, outDir: outDir}
	switch {
	case o.modes:
		return runModes(o.seed, outDir)
	case o.selfcheck:
		return runSelfcheck(r, o.seed, o.seconds)
	case !known:
		return runAll(r, o.seed, o.seconds)
	}
	res, err := r.run(w, o.seed, o.seconds, o.trace)
	if err != nil {
		return err
	}
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "benchmark:", w.Name+":", e)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation (0 for
// an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianMaps takes the per-key median over several runs' metric maps.
func medianMaps(runs []map[string]float64) map[string]float64 {
	by := map[string][]float64{}
	for _, m := range runs {
		for k, v := range m {
			by[k] = append(by[k], v)
		}
	}
	out := map[string]float64{}
	for k, xs := range by {
		out[k] = median(xs)
	}
	return out
}
