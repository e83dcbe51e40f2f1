package fileio

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadFloats: a -weights or -rates file is what a user hands the CLI.
// Whatever the bytes, ReadFloats returns an error rather than panicking,
// and what it accepts is exact: the list re-formatted with
// strconv.FormatFloat(v, 'g', -1, 64) reads back bit for bit. (Whether a
// value is a valid weight or rate is seq.Compress's rule, not the
// reader's.) The committed corpus (testdata/fuzz/) holds a commented
// multi-line list, a hex float, NaN and Inf spellings, an out-of-range
// exponent, a subnormal and a negative zero, and a stray token.
func FuzzReadFloats(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, err := ReadFloats(bytes.NewReader(data))
		if err != nil {
			if vs != nil {
				t.Errorf("error %v with %d values", err, len(vs))
			}
			return
		}
		var b strings.Builder
		for _, v := range vs {
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
			b.WriteByte('\n')
		}
		again, err := ReadFloats(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-formatted list does not re-read: %v\n%s", err, b.String())
		}
		if len(again) != len(vs) {
			t.Fatalf("%d values re-read as %d", len(vs), len(again))
		}
		for i := range vs {
			if math.Float64bits(again[i]) != math.Float64bits(vs[i]) {
				t.Errorf("value %d: %v re-read as %v", i, vs[i], again[i])
			}
		}
	})
}
