// Package stats provides the small numeric and presentation helpers the
// benchmark harness uses to report the paper's tables and figures:
// summary statistics over repeated runs, speedup/efficiency math,
// markdown tables, and ASCII log-scale charts standing in for Figures 3-4.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Speedup returns serial/parallel (0 when parallel is 0).
func Speedup(serial, parallel float64) float64 {
	if parallel == 0 {
		return 0
	}
	return serial / parallel
}

// Efficiency returns speedup/processors (0 when processors is 0).
func Efficiency(speedup float64, processors int) float64 {
	if processors == 0 {
		return 0
	}
	return speedup / float64(processors)
}

// FormatDuration renders seconds humanely (the paper's figures span
// seconds to days).
func FormatDuration(seconds float64) string {
	switch {
	case seconds < 0:
		return "-" + FormatDuration(-seconds)
	case seconds < 120:
		return fmt.Sprintf("%.1fs", seconds)
	case seconds < 2*3600:
		return fmt.Sprintf("%.1fm", seconds/60)
	case seconds < 2*86400:
		return fmt.Sprintf("%.1fh", seconds/3600)
	default:
		return fmt.Sprintf("%.1fd", seconds/86400)
	}
}

// Table is a GitHub markdown table: a header row, a |---| separator and
// one row per Add. EXPERIMENTS.md holds the tables cmd/scaling prints
// verbatim, so this is the one format they are printed in.
type Table struct {
	Headers []string
	Rows    [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteByte('|')
		for _, c := range cells {
			b.WriteString(" " + c + " |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one labeled line of (x, y) points for ASCII charts.
type Series struct {
	Label  string
	X, Y   []float64
	Marker byte
}

// SharedMarker marks a LogLogChart cell that two or more series share.
const SharedMarker = '#'

// LogLogChart renders series on log-log axes as ASCII art, standing in
// for the paper's Figures 3 and 4.
func LogLogChart(title, xlabel, ylabel string, series []Series, width, height int) string {
	if width < 20 {
		width = 60
	}
	if height < 8 {
		height = 20
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			if s.X[i] <= 0 || s.Y[i] <= 0 {
				continue
			}
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if minX > maxX || minY > maxY {
		return title + ": no data\n"
	}
	if minX == maxX {
		maxX = minX * 2
	}
	if minY == maxY {
		maxY = minY * 2
	}
	lx0, lx1 := math.Log(minX), math.Log(maxX)
	ly0, ly1 := math.Log(minY), math.Log(maxY)

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	// A cell that series with different markers land in shows
	// SharedMarker, so no series hides another.
	shared := false
	for _, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = '*'
		}
		for i := range s.X {
			if s.X[i] <= 0 || s.Y[i] <= 0 {
				continue
			}
			cx := int((math.Log(s.X[i]) - lx0) / (lx1 - lx0) * float64(width-1))
			cy := int((math.Log(s.Y[i]) - ly0) / (ly1 - ly0) * float64(height-1))
			switch cell := &grid[height-1-cy][cx]; *cell {
			case ' ', marker:
				*cell = marker
			default:
				*cell, shared = SharedMarker, true
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%s (log scale)\n", ylabel)
	fmt.Fprintf(&b, "%10.3g +%s\n", maxY, strings.Repeat("-", width))
	for _, row := range grid {
		fmt.Fprintf(&b, "%10s |%s\n", "", strings.TrimRight(string(row), " "))
	}
	fmt.Fprintf(&b, "%10.3g +%s\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(&b, "%10s  %-8.3g%s%8.3g\n", "", minX, strings.Repeat(" ", width-16), maxX)
	fmt.Fprintf(&b, "%10s  %s (log scale)\n", "", xlabel)
	for _, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = '*'
		}
		fmt.Fprintf(&b, "%12c %s\n", marker, s.Label)
	}
	if shared {
		fmt.Fprintf(&b, "%12c two or more series\n", SharedMarker)
	}
	return b.String()
}
