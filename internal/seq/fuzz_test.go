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

// FuzzCompress: the radix sort in Compress against the comparison-sort
// oracle on alignments built from the bytes. Byte 0 gives the row count
// (1 to 8); byte 1's bits give per-site weights, per-site rates and
// Disable. Each site then reads one byte per row for its code (any of
// the fifteen), a weight byte (0, 0.5, 1 or 1.5) when weights are on and
// a rate byte (one of three classes) when rates are on. The committed
// corpus (testdata/fuzz/) holds an odd and an even row count, a single
// row, weights with zeros, rates, all weights zero, and Disable.
func FuzzCompress(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nseq := 1 + int(data[0]%8)
		weighted, rated, disable := data[1]&1 != 0, data[1]&2 != 0, data[1]&4 != 0
		rec := nseq
		if weighted {
			rec++
		}
		if rated {
			rec++
		}
		body := data[2:]
		nsites := min(len(body)/rec, 256)
		if nsites == 0 {
			return
		}
		rows := make([][]Code, nseq)
		for i := range rows {
			rows[i] = make([]Code, nsites)
		}
		opt := CompressOptions{Disable: disable}
		if weighted {
			opt.Weights = make([]float64, nsites)
		}
		if rated {
			opt.Rates = make([]float64, nsites)
		}
		for s := 0; s < nsites; s++ {
			r := body[s*rec : (s+1)*rec]
			for i := range rows {
				rows[i][s] = Code(1 + r[i]%15)
			}
			r = r[nseq:]
			if weighted {
				opt.Weights[s] = float64(r[0]%4) / 2
				r = r[1:]
			}
			if rated {
				opt.Rates[s] = []float64{0.3, 1, 2.7}[r[0]%3]
			}
		}
		a := NewAlignment(nseq)
		for i, row := range rows {
			if err := a.AddCoded(string(rune('a'+i)), row); err != nil {
				t.Fatal(err)
			}
		}
		checkCompressAgainstSort(t, a, opt)
	})
}
