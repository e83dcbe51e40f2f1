package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fileio"
)

// End-of-run benchmark reports. A run that finishes writes one
// BENCH_<run>.json so the performance trajectory of the codebase
// accumulates machine-readable data points (wall time, task and op
// totals, cache behaviour, per-phase latencies) instead of lines in a
// terminal scrollback.

// BenchReport is the schema of a BENCH_<run>.json file.
type BenchReport struct {
	// Run names the run; it also names the output file.
	Run string `json:"run"`
	// StartedAt/FinishedAt bound the run's wall clock.
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	// WallMs is the run's wall-clock duration in milliseconds.
	WallMs float64 `json:"wall_ms"`
	// Totals holds flat numeric facts (tasks, ops, lnl, cache hits...).
	Totals map[string]float64 `json:"totals,omitempty"`
	// Details carries any structured payload (per-round stats, per-worker
	// histories, monitor aggregates).
	Details any `json:"details,omitempty"`
}

// benchRunName sanitizes a run name for use in a file name.
func benchRunName(run string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, run)
	if clean == "" {
		clean = "run"
	}
	return clean
}

// WriteBench writes report as dir/BENCH_<run>.json (atomically, via a
// temp file rename) and returns the final path. A zero FinishedAt is
// stamped now; WallMs is derived from the timestamps when unset.
func WriteBench(dir string, report BenchReport) (string, error) {
	if report.FinishedAt.IsZero() {
		report.FinishedAt = time.Now()
	}
	if report.WallMs == 0 && !report.StartedAt.IsZero() {
		report.WallMs = PhaseMs(report.FinishedAt.Sub(report.StartedAt))
	}
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: bench dir: %w", err)
	}
	path := filepath.Join(dir, "BENCH_"+benchRunName(report.Run)+".json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: bench encode: %w", err)
	}
	data = append(data, '\n')
	err = fileio.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("obs: bench write: %w", err)
	}
	return path, nil
}

// ReadBench loads a BENCH_*.json file (cmd/benchdiff reads both of its
// reports with it).
func ReadBench(path string) (BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchReport{}, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return BenchReport{}, fmt.Errorf("obs: bench decode %s: %w", path, err)
	}
	return r, nil
}
