package fileio

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReadTrees(t *testing.T) {
	taxa := []string{"a", "b", "c", "d"}
	in := `# a comment
((a,b),c,d);

((a,c),b,d);
`
	trees, err := ReadTrees(strings.NewReader(in), taxa)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("%d trees", len(trees))
	}
	if trees[0].NumLeaves() != 4 {
		t.Errorf("tree 0 has %d leaves", trees[0].NumLeaves())
	}
}

func TestReadTreesErrors(t *testing.T) {
	taxa := []string{"a", "b", "c"}
	if _, err := ReadTrees(strings.NewReader(""), taxa); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadTrees(strings.NewReader("(a,b,zz);"), taxa); err == nil {
		t.Error("unknown taxon accepted")
	}
}

// TestTaxaFromTreesFile: the taxa are the first tree's leaves as
// ParseNewick reads them — quoted labels may hold commas, an unquoted one
// may hold a quote, and internal labels and bracket comments name no taxon.
func TestTaxaFromTreesFile(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"# hdr\n((x,y),z,w);\n((x,z),y,w);\n", []string{"x", "y", "z", "w"}},
		{"((a:1,b:2):0.5,c,d);", []string{"a", "b", "c", "d"}},
		{"(a,b,'Homo sapiens');", []string{"a", "b", "Homo sapiens"}},
		{"('it''s',b,c);", []string{"it's", "b", "c"}},
		{"((O'Brien,b),c,d);", []string{"O'Brien", "b", "c", "d"}},
		{"((a,b)'x,y':0.1,c,d);", []string{"a", "b", "c", "d"}},
		{"((a,b)x[y,z],c,d);", []string{"a", "b", "c", "d"}},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "trees.nwk")
	for _, c := range cases {
		if err := os.WriteFile(path, []byte(c.in), 0o644); err != nil {
			t.Fatal(err)
		}
		taxa, err := TaxaFromTreesFile(path)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(taxa, c.want) {
			t.Errorf("%q: taxa %q, want %q", c.in, taxa, c.want)
		}
	}
	for _, bad := range []string{"();\n", "((a,b),a,c);\n", "# only a comment\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if taxa, err := TaxaFromTreesFile(path); err == nil {
			t.Errorf("%q accepted with taxa %q", bad, taxa)
		}
	}
	if _, err := TaxaFromTreesFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestTaxaFromTreesFileLineTooLong: a first tree longer than the
// scanner's 16 MB line limit is the scanner's error, not "no trees
// found".
func TestTaxaFromTreesFileLineTooLong(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.nwk")
	line := "((a,b),c," + strings.Repeat("d", 1<<24) + ");\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := TaxaFromTreesFile(path)
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error %v, want %v", err, bufio.ErrTooLong)
	}
}

func TestReadFloats(t *testing.T) {
	in := "1.5 2\n# comment\n3e-2  # trailing comment\n\n4\n"
	vs, err := ReadFloats(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2, 0.03, 4}
	if len(vs) != len(want) {
		t.Fatalf("%v", vs)
	}
	for i := range vs {
		if vs[i] != want[i] {
			t.Errorf("vs[%d] = %g, want %g", i, vs[i], want[i])
		}
	}
	if _, err := ReadFloats(strings.NewReader("abc")); err == nil {
		t.Error("non-numeric accepted")
	}
}

func TestWriteLinesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteLines(path, []string{"one", "two"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "one\ntwo\n" {
		t.Errorf("content %q", data)
	}
}

func TestReadTreesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trees.nwk")
	if err := os.WriteFile(path, []byte("((a,b),c,d);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trees, err := ReadTreesFile(path, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("%d trees", len(trees))
	}
	if _, err := ReadTreesFile(filepath.Join(dir, "nope"), nil); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadFloatsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.txt")
	if err := os.WriteFile(path, []byte("0.5\n1.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	vs, err := ReadFloatsFile(path)
	if err != nil || len(vs) != 2 {
		t.Fatalf("%v %v", vs, err)
	}
}

// TestWriteFileAtomic: a successful write replaces the file; a failed
// write, a failed rename or a temporary file that cannot be created
// leaves the old file byte-identical and nothing else behind in its
// directory.
func TestWriteFileAtomic(t *testing.T) {
	errWrite := errors.New("writer failed")
	// Each row's setup prepares a directory and returns the path to write.
	old := func(t *testing.T, dir string) string {
		p := filepath.Join(dir, "target.json")
		writeOld(t, p)
		return p
	}
	for _, tc := range []struct {
		name    string
		setup   func(t *testing.T, dir string) string
		write   func(io.Writer) error
		wantErr bool
	}{
		{"replaces", old, writeString("new"), false},
		{"creates", func(_ *testing.T, dir string) string { return filepath.Join(dir, "target.json") }, writeString("new"), false},
		{"write fails", old, func(w io.Writer) error {
			io.WriteString(w, "partial")
			return errWrite
		}, true},
		{"rename fails", func(t *testing.T, dir string) string {
			// A file cannot be renamed over a directory.
			p := filepath.Join(dir, "target.json")
			if err := os.Mkdir(p, 0o755); err != nil {
				t.Fatal(err)
			}
			writeOld(t, filepath.Join(p, "inside"))
			return p
		}, writeString("new"), true},
		{"temp file fails", func(t *testing.T, dir string) string {
			// The directory the temporary file would go in is a file.
			p := filepath.Join(dir, "notadir")
			writeOld(t, p)
			return filepath.Join(p, "target.json")
		}, writeString("new"), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := tc.setup(t, dir)
			before := snapshot(t, dir)
			err := WriteFileAtomic(path, tc.write)
			if (err != nil) != tc.wantErr {
				t.Fatalf("error %v, want error %v", err, tc.wantErr)
			}
			after := snapshot(t, dir)
			if tc.wantErr {
				if !reflect.DeepEqual(after, before) {
					t.Errorf("failed write changed the directory:\nbefore %q\n after %q", before, after)
				}
				if tc.name == "write fails" && !errors.Is(err, errWrite) {
					t.Errorf("error %v, want the writer's", err)
				}
				return
			}
			if want := map[string]string{"target.json": "new"}; !reflect.DeepEqual(after, want) {
				t.Errorf("directory after the write %q, want %q", after, want)
			}
		})
	}
}

func writeOld(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// snapshot maps every path under root to its contents ("<dir>" for a
// directory).
func snapshot(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || p == root {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			out[rel] = "<dir>"
			return nil
		}
		data, err := os.ReadFile(p)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
