package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTrees(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trees.nwk")
	content := "((a:0.1,b:0.2):0.05,c:0.1,(d:0.3,e:0.1):0.2);\n" +
		"((a:0.1,c:0.2):0.05,b:0.1,(d:0.3,e:0.1):0.2);\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunASCII(t *testing.T) {
	trees := writeTrees(t)
	out := filepath.Join(t.TempDir(), "out.txt")
	if err := run(trees, "ascii", out, "", true, 70, true, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if !strings.Contains(s, name) {
			t.Errorf("taxon %s missing:\n%s", name, s)
		}
	}
	if !strings.Contains(s, "--- tree 2 ---") {
		t.Error("second tree header missing")
	}
}

func TestRunASCIIWithTrace(t *testing.T) {
	trees := writeTrees(t)
	out := filepath.Join(t.TempDir(), "out.txt")
	if err := run(trees, "ascii", out, "a,d", false, 0, true, 0); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	if !strings.Contains(string(data), "trace a:") {
		t.Errorf("trace report missing:\n%s", data)
	}
}

func TestRunSVG(t *testing.T) {
	trees := writeTrees(t)
	out := filepath.Join(t.TempDir(), "out.svg")
	if err := run(trees, "svg", out, "a", false, 700, true, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "<svg") || !strings.Contains(s, "<circle") {
		t.Errorf("svg output malformed:\n%.200s", s)
	}
}

func TestRunFirstLimit(t *testing.T) {
	trees := writeTrees(t)
	out := filepath.Join(t.TempDir(), "out.txt")
	if err := run(trees, "ascii", out, "", false, 0, true, 1); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	if strings.Contains(string(data), "tree 2") {
		t.Error("first=1 still rendered tree 2")
	}
}

func TestRunErrors(t *testing.T) {
	trees := writeTrees(t)
	if err := run(trees, "png", "", "", false, 0, true, 0); err == nil {
		t.Error("unknown format accepted")
	}
	if err := run(trees, "ascii", "", "nosuch", false, 0, true, 0); err == nil {
		t.Error("unknown trace taxon accepted")
	}
	if err := run(filepath.Join(t.TempDir(), "missing"), "ascii", "", "", false, 0, true, 0); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunReadsNewickLabels: the taxa -trace resolves are the leaves
// ParseNewick reads — an unquoted label may hold a quote, a quoted
// internal label or a bracket comment may hold a comma — and nothing else.
func TestRunReadsNewickLabels(t *testing.T) {
	cases := []struct {
		in, notTaxon string
		want         []string
	}{
		{"((O'Brien,b),c,d);", "O", []string{"O'Brien", "b", "c", "d"}},
		{"((a,b)'x,y':0.1,c,d);", "y'", []string{"a", "b", "c", "d"}},
		{"((a,b)x[y,z],c,d);", "z]", []string{"a", "b", "c", "d"}},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trees.nwk")
	out := filepath.Join(dir, "out.txt")
	for _, c := range cases {
		if err := os.WriteFile(path, []byte(c.in+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(path, "ascii", out, strings.Join(c.want, ","), false, 0, true, 0); err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		data, _ := os.ReadFile(out)
		for _, name := range c.want {
			if !strings.Contains(string(data), "trace "+name+":") {
				t.Errorf("%q: no trace of %q:\n%s", c.in, name, data)
			}
		}
		if err := run(path, "ascii", out, c.notTaxon, false, 0, true, 0); err == nil {
			t.Errorf("%q: %q traced as a taxon", c.in, c.notTaxon)
		}
	}
}
