// Package fileio holds the small file helpers shared by the command line
// tools and the daemon: newline-delimited Newick tree lists, numeric
// column files (site rates, site weights, category files) and the one
// atomic file replacement every restart manifest, job record, stored
// result and bench report is written with.
package fileio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/tree"
)

// ReadTrees parses a file of Newick trees (one per line; blank lines and
// '#' comments ignored) over the given taxon set.
func ReadTrees(r io.Reader, taxa []string) ([]*tree.Tree, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var out []*tree.Tree
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := tree.ParseNewick(line, taxa)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, t)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no trees found")
	}
	return out, nil
}

// ReadTreesFile is ReadTrees over a path.
func ReadTreesFile(path string, taxa []string) ([]*tree.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ts, err := ReadTrees(f, taxa)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}

// TaxaFromTreesFile returns the leaf labels of the first tree of a Newick
// file, in order of first appearance (tree.NewickLabels), for tools that
// have no alignment to define the taxon set.
func TaxaFromTreesFile(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		taxa, err := tree.NewickLabels(line)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return taxa, nil
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return nil, fmt.Errorf("%s: no trees found", path)
}

// ReadFloats parses a whitespace/newline-separated list of numbers
// ('#' comments ignored).
func ReadFloats(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var out []float64
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = strings.TrimSpace(line[:idx])
		}
		if line == "" {
			continue
		}
		for _, field := range strings.Fields(line) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %q: %w", lineNo, field, err)
			}
			out = append(out, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadFloatsFile is ReadFloats over a path.
func ReadFloatsFile(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vs, err := ReadFloats(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return vs, nil
}

// WriteLines writes strings to a file, one per line.
func WriteLines(path string, lines []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, line := range lines {
		fmt.Fprintln(w, line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileAtomic replaces path with what write produces, so a reader
// sees the old file or the new one and never a partial write: write
// fills a temporary file in path's directory, which is closed and renamed
// over path. On any failure the temporary file is removed and path is
// left as it was. There is no fsync — the replacement survives a crash of
// this process, not necessarily of the machine.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
