package seq

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadPhylip: a PHYLIP file is what a user hands the CLI and a job
// hands the daemon. Whatever the bytes, ReadPhylip returns an error
// rather than panicking, and what it accepts is stable: WritePhylip's
// rendering re-reads to the same names and codes and renders to the same
// bytes again. The daemon hashes that rendering into its result and pod
// keys and re-reads it from the job store after a restart, so the fixed
// point is what keeps a stored job's keys put. The committed corpus
// (testdata/fuzz/) holds a valid interleaved and a valid sequential
// file, a truncated one, a header whose counts the data does not meet,
// one with CRLF line ends, tabs and blank lines, one with strict
// 10-column names holding a blank, one whose base-letter name lets the
// two-block rendering also parse as a sequential file, one whose name is
// a carriage return, and one whose strict name field holds a carriage
// return after a blank and a base letter.
func FuzzReadPhylip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadPhylip(bytes.NewReader(data))
		if err != nil {
			if a != nil {
				t.Errorf("error %v with an alignment", err)
			}
			return
		}
		var first bytes.Buffer
		if err := WritePhylip(&first, a, 0); err != nil {
			t.Fatalf("accepted alignment does not render: %v", err)
		}
		again, err := ReadPhylip(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rendering does not re-read: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(again.Names, a.Names) || !reflect.DeepEqual(again.Data, a.Data) {
			t.Fatalf("alignment changed across render/re-read:\n got %q\nwant %q\n%s", again.Names, a.Names, first.Bytes())
		}
		var second bytes.Buffer
		if err := WritePhylip(&second, again, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), first.Bytes()) {
			t.Errorf("rendering is not stable:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
