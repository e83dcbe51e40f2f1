package seq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func benchAlignment(b *testing.B, taxa, sites int) *Alignment {
	b.Helper()
	rng := rand.New(rand.NewSource(3))
	a := NewAlignment(taxa)
	letters := "ACGT"
	for i := 0; i < taxa; i++ {
		var sb strings.Builder
		for s := 0; s < sites; s++ {
			sb.WriteByte(letters[rng.Intn(4)])
		}
		if err := a.Add(string(rune('A'+i%26))+string(rune('a'+i/26)), sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	return a
}

// BenchmarkCompress measures site-pattern compression where it costs
// the most: long8_t2's shape (8×9 000), a long alignment (8×900 000),
// and the 20-, 50- and 150-taxon shapes of the searches and the paper's
// data sets. Run it with -benchmem.
func BenchmarkCompress(b *testing.B) {
	for _, shape := range []struct{ taxa, sites int }{
		{8, 9000}, {8, 900000}, {20, 600}, {50, 1858}, {150, 1269},
	} {
		b.Run(fmt.Sprintf("%dx%d", shape.taxa, shape.sites), func(b *testing.B) {
			a := benchAlignment(b, shape.taxa, shape.sites)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compress(a, CompressOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadPhylip measures parsing a 50x1858 interleaved file.
func BenchmarkReadPhylip(b *testing.B) {
	a := benchAlignment(b, 50, 1858)
	var sb strings.Builder
	if err := WritePhylip(&sb, a, 0); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadPhylip(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
