package likelihood

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestKernelBenchJSON measures the kernel benchmarks at each thread
// count with testing.Benchmark and archives the results as
// BENCH_kernels.json via the obs bench writer, so CI accumulates
// machine-readable scaling data points alongside the chaos-soak and run
// reports. Gated on FDML_BENCH_DIR (make bench sets it); plain test
// runs skip it.
func TestKernelBenchJSON(t *testing.T) {
	dir := os.Getenv("FDML_BENCH_DIR")
	if dir == "" {
		t.Skip("set FDML_BENCH_DIR to emit BENCH_kernels.json")
	}
	start := time.Now()
	// Each kernel/thread-count point is measured benchReps times and the
	// minimum ns/op recorded: single testing.Benchmark samples swing
	// ±15% on shared runners, and best-of-N is the stablest estimator of
	// the kernel's true cost for the regression gate to diff against.
	const benchReps = 3
	// Every kernel carries the zero-alloc steady-state guarantee.
	kernels := []struct {
		name string
		fn   func(*testing.B, int)
	}{
		{"down_partial_cached", benchDownPartial},
		{"newton_edge", benchNewton},
		{"newton_solve", benchNewtonSolve},
		{"full_smooth", benchSmooth},
		{"grad_smooth", benchGradientSmooth},
	}
	// The calibration workload is a fixed, dependent float64 chain: pure
	// CPU speed, no memory or threading effects. benchdiff divides the
	// kernel timings by it before applying the regression limit, so a
	// shared runner that is globally 20% slower today than when the
	// baseline was captured does not read as 20% of kernel regression.
	cal := testing.Benchmark(benchCalibration)
	for rep := 1; rep < benchReps; rep++ {
		if rr := testing.Benchmark(benchCalibration); rr.NsPerOp() < cal.NsPerOp() {
			cal = rr
		}
	}
	t.Logf("calibration: %v/op", cal.NsPerOp())
	totals := map[string]float64{
		"num_cpu":        float64(runtime.NumCPU()),
		"gomaxprocs":     float64(runtime.GOMAXPROCS(0)),
		"calibration_ns": float64(cal.NsPerOp()),
	}
	details := map[string]any{}
	for _, k := range kernels {
		per := map[string]any{}
		var serialNs float64
		for _, n := range benchThreadCounts {
			n := n
			r := testing.Benchmark(func(b *testing.B) { k.fn(b, n) })
			for rep := 1; rep < benchReps; rep++ {
				if rr := testing.Benchmark(func(b *testing.B) { k.fn(b, n) }); rr.NsPerOp() < r.NsPerOp() {
					r = rr
				}
			}
			ns := float64(r.NsPerOp())
			if n == 1 {
				serialNs = ns
			}
			per[fmt.Sprintf("threads_%d", n)] = map[string]float64{
				"ns_per_op":         ns,
				"allocs_per_op":     float64(r.AllocsPerOp()),
				"bytes_per_op":      float64(r.AllocedBytesPerOp()),
				"speedup_vs_serial": serialNs / ns,
			}
			totals[fmt.Sprintf("%s_threads_%d_ns", k.name, n)] = ns
			if r.AllocsPerOp() != 0 {
				t.Errorf("%s threads=%d: %d allocs/op in steady state, want 0",
					k.name, n, r.AllocsPerOp())
			}
			t.Logf("%s threads=%d: %v/op, %d allocs/op", k.name, n, r.NsPerOp(), r.AllocsPerOp())
		}
		details[k.name] = per
	}
	if calSink == 0 {
		t.Error("calibration sink unexpectedly zero")
	}
	path, err := obs.WriteBench(dir, obs.BenchReport{
		Run:       "kernels",
		StartedAt: start,
		Totals:    totals,
		Details:   details,
	})
	if err != nil {
		t.Fatalf("bench report: %v", err)
	}
	t.Logf("wrote %s", path)
}

// calSink defeats dead-code elimination of the calibration chain.
var calSink float64

// benchCalibration is the machine-speed reference for benchdiff's
// normalization: a serially dependent multiply/add chain whose cost is
// set purely by single-core CPU speed.
func benchCalibration(b *testing.B) {
	s, y := 0.0, 1.0
	for i := 0; i < b.N; i++ {
		for j := 0; j < 4096; j++ {
			y = y*1.0000001 + 1e-9
			s += y
		}
	}
	calSink = s
}
