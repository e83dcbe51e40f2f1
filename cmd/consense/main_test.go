package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tree"
)

func TestRunConsense(t *testing.T) {
	dir := t.TempDir()
	treesPath := filepath.Join(dir, "trees.nwk")
	content := "((a,b),c,(d,e));\n((a,b),c,(d,e));\n((a,c),b,(d,e));\n"
	if err := os.WriteFile(treesPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "cons.nwk")
	var report bytes.Buffer
	if err := run(treesPath, 0.5, outPath, false, &report); err != nil {
		t.Fatal(err)
	}
	// Each retained split's support line names the taxa on its smaller
	// side, strongest split first.
	want := "consense: 3 trees, 2 splits retained of 3 observed\n" +
		"  split support 100%: d e\n" +
		"  split support 67%: a b\n"
	if report.String() != want {
		t.Errorf("report:\n%s\nwant:\n%s", report.String(), want)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	s := strings.TrimSpace(string(data))
	// The consensus keeps {a,b} (2/3) and {d,e} (3/3).
	if !strings.Contains(s, "a") || !strings.HasSuffix(s, ";") {
		t.Errorf("consensus output %q", s)
	}
}

func TestRunConsenseErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing"), 0.5, "", false, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	treesPath := filepath.Join(dir, "trees.nwk")
	os.WriteFile(treesPath, []byte("((a,b),c,d);\n"), 0o644)
	if err := run(treesPath, 0.2, "", false, io.Discard); err == nil {
		t.Error("bad threshold accepted")
	}
}

// TestRunConsenseReadsNewickLabels: the taxa are the leaves ParseNewick
// reads — an unquoted label may hold a quote, a quoted internal label or
// a bracket comment may hold a comma — and the consensus names exactly
// them.
func TestRunConsenseReadsNewickLabels(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"((O'Brien,b),c,d);", []string{"O'Brien", "b", "c", "d"}},
		{"((a,b)'x,y':0.1,c,d);", []string{"a", "b", "c", "d"}},
		{"((a,b)x[y,z],c,d);", []string{"a", "b", "c", "d"}},
	}
	dir := t.TempDir()
	treesPath := filepath.Join(dir, "trees.nwk")
	outPath := filepath.Join(dir, "cons.nwk")
	for _, c := range cases {
		if err := os.WriteFile(treesPath, []byte(c.in+"\n"+c.in+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(treesPath, 0.5, outPath, false, io.Discard); err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		cons, err := tree.ParseNewick(strings.TrimSpace(string(data)), c.want)
		if err != nil {
			t.Errorf("%q: consensus %q over %q: %v", c.in, data, c.want, err)
			continue
		}
		if n := cons.NumLeaves(); n != len(c.want) {
			t.Errorf("%q: consensus %q has %d leaves, want %d", c.in, data, n, len(c.want))
		}
	}
}
