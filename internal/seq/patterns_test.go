package seq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mkAlign(t *testing.T, rows ...string) *Alignment {
	t.Helper()
	a := NewAlignment(len(rows))
	for i, r := range rows {
		if err := a.Add(string(rune('a'+i)), r); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestCompressBasic(t *testing.T) {
	// Columns: 0 and 3 identical, 1 and 2 identical.
	a := mkAlign(t,
		"ACCA",
		"GTTG",
		"AGGA")
	p, err := Compress(a, CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPatterns() != 2 {
		t.Fatalf("NumPatterns = %d, want 2", p.NumPatterns())
	}
	if p.TotalWeight() != 4 {
		t.Errorf("TotalWeight = %g, want 4", p.TotalWeight())
	}
	if p.SiteOf[0] != p.SiteOf[3] || p.SiteOf[1] != p.SiteOf[2] || p.SiteOf[0] == p.SiteOf[1] {
		t.Errorf("SiteOf = %v", p.SiteOf)
	}
}

func TestCompressWeightsAndZeroDrop(t *testing.T) {
	a := mkAlign(t, "ACGT", "ACGT")
	p, err := Compress(a, CompressOptions{Weights: []float64{2, 0, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalWeight() != 6 {
		t.Errorf("TotalWeight = %g, want 6", p.TotalWeight())
	}
	if p.SiteOf[1] != -1 {
		t.Errorf("zero-weight site should map to -1, got %d", p.SiteOf[1])
	}
}

func TestCompressRatesSplitPatterns(t *testing.T) {
	// Identical columns with different rates must not alias.
	a := mkAlign(t, "AA", "CC")
	p, err := Compress(a, CompressOptions{Rates: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPatterns() != 2 {
		t.Fatalf("NumPatterns = %d, want 2 (rates differ)", p.NumPatterns())
	}
}

func TestCompressDisable(t *testing.T) {
	a := mkAlign(t, "AAAA", "CCCC")
	p, err := Compress(a, CompressOptions{Disable: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPatterns() != 4 {
		t.Fatalf("NumPatterns = %d, want 4 with compression disabled", p.NumPatterns())
	}
}

func TestCompressErrors(t *testing.T) {
	a := mkAlign(t, "ACGT")
	if _, err := Compress(a, CompressOptions{Weights: []float64{1}}); err == nil {
		t.Error("wrong weight length should fail")
	}
	if _, err := Compress(a, CompressOptions{Weights: []float64{1, -1, 1, 1}}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := Compress(a, CompressOptions{Rates: []float64{1, 0, 1, 1}}); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := Compress(a, CompressOptions{Weights: []float64{0, 0, 0, 0}}); err == nil {
		t.Error("all-zero weights should fail")
	}
}

// TestCompressInvariantsQuick checks, for random alignments, that the
// compressed representation preserves total weight and reconstructs every
// column exactly.
func TestCompressInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nseq := 2 + rng.Intn(5)
		nsites := 1 + rng.Intn(40)
		a := NewAlignment(nseq)
		for i := 0; i < nseq; i++ {
			row := make([]Code, nsites)
			for s := range row {
				row[s] = Code(1 + rng.Intn(15))
			}
			if err := a.AddCoded(string(rune('a'+i)), row); err != nil {
				return false
			}
		}
		p, err := Compress(a, CompressOptions{})
		if err != nil {
			return false
		}
		if p.TotalWeight() != float64(nsites) {
			return false
		}
		// Each original column must match its pattern exactly.
		for s := 0; s < nsites; s++ {
			pat := p.SiteOf[s]
			for i := 0; i < nseq; i++ {
				if p.Codes[i][pat] != a.Data[i][s] {
					return false
				}
			}
		}
		// Patterns must be pairwise distinct.
		for x := 0; x < p.NumPatterns(); x++ {
			for y := x + 1; y < p.NumPatterns(); y++ {
				same := true
				for i := 0; i < nseq; i++ {
					if p.Codes[i][x] != p.Codes[i][y] {
						same = false
						break
					}
				}
				if same {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExpandPerSiteValues(t *testing.T) {
	a := mkAlign(t, "AACA", "GGTG")
	p, err := Compress(a, CompressOptions{Weights: []float64{1, 1, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, p.NumPatterns())
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	out, err := p.ExpandPerSite(vals, -1)
	if err != nil {
		t.Fatal(err)
	}
	if out[3] != -1 {
		t.Errorf("dropped site fill = %g, want -1", out[3])
	}
	if out[0] != out[1] {
		t.Errorf("aliased sites got different values: %v", out)
	}
	if out[0] == out[2] {
		t.Errorf("distinct sites got same value: %v", out)
	}
	if _, err := p.ExpandPerSite(vals[:1], 0); err == nil && p.NumPatterns() != 1 {
		t.Error("length mismatch should fail")
	}
}

func TestEmpiricalFreqsUnambiguous(t *testing.T) {
	a := mkAlign(t, "AACG", "TTCG")
	f, err := EmpiricalFreqs(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 A, 2 C, 2 G, 2 T out of 8.
	for b := 0; b < NumBases; b++ {
		if f[b] < 0.249 || f[b] > 0.251 {
			t.Errorf("freq[%c] = %g, want 0.25", BaseName(b), f[b])
		}
	}
}

func TestEmpiricalFreqsIgnoresGaps(t *testing.T) {
	a := mkAlign(t, "AA--", "AANN")
	f, err := EmpiricalFreqs(a)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] < 0.99 {
		t.Errorf("freq[A] = %g, want ~1 (gaps carry no information)", f[0])
	}
}

func TestEmpiricalFreqsAmbiguousSplit(t *testing.T) {
	// R = A or G; with only R characters the mass should split between
	// A and G.
	a := mkAlign(t, "RRRR")
	f, err := EmpiricalFreqs(a)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] < 0.4 || f[2] < 0.4 {
		t.Errorf("R should split between A and G: %v", f)
	}
	if f[1] > 0.01 || f[3] > 0.01 {
		t.Errorf("C/T should receive almost nothing: %v", f)
	}
}

func TestEmpiricalFreqsPatternsMatchesAlignment(t *testing.T) {
	a := mkAlign(t, "AACGTACGAA", "ACCGTTCGAA", "AACCTACGTA")
	p, err := Compress(a, CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := EmpiricalFreqs(a)
	if err != nil {
		t.Fatal(err)
	}
	fp := EmpiricalFreqsPatterns(p)
	for b := 0; b < NumBases; b++ {
		if d := fa[b] - fp[b]; d > 1e-12 || d < -1e-12 {
			t.Errorf("freq[%c]: alignment %g vs patterns %g", BaseName(b), fa[b], fp[b])
		}
	}
}

// empiricalFreqsPatternsDirect is the estimator written cell by cell, the
// way fastDNAml's empiricalfreqs reads: the reference the hoisted
// production form must equal bit for bit (the frequencies parameterize
// the model, so a last-digit difference would reach every likelihood).
func empiricalFreqsPatternsDirect(p *Patterns) BaseFreqs {
	f := Uniform()
	for it := 0; it < 8; it++ {
		var counts BaseFreqs
		for i := range p.Codes {
			for s, c := range p.Codes[i] {
				if c == Any {
					continue
				}
				mass := 0.0
				for b := 0; b < NumBases; b++ {
					if c&(1<<uint(b)) != 0 {
						mass += f[b]
					}
				}
				if mass == 0 {
					continue
				}
				for b := 0; b < NumBases; b++ {
					if c&(1<<uint(b)) != 0 {
						counts[b] += p.Weights[s] * f[b] / mass
					}
				}
			}
		}
		total := counts[0] + counts[1] + counts[2] + counts[3]
		if total == 0 {
			return Uniform()
		}
		for b := 0; b < NumBases; b++ {
			f[b] = counts[b] / total
			if f[b] < 1e-6 {
				f[b] = 1e-6
			}
		}
		f = f.Normalize()
	}
	return f
}

func TestEmpiricalFreqsPatternsBitIdenticalToDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 300; k++ {
		// No, few and many ambiguity codes; a base may be absent.
		ambiguous := []float64{0, 0.05, 0.5}[k%3]
		p := &Patterns{}
		n := 1 + rng.Intn(200)
		for i, taxa := 0, 2+rng.Intn(30); i < taxa; i++ {
			row := make([]Code, n)
			for s := range row {
				if rng.Float64() < ambiguous {
					row[s] = Code(1 + rng.Intn(int(Any)))
				} else {
					row[s] = Code(1 << uint(rng.Intn(1+k%NumBases)))
				}
			}
			p.Codes = append(p.Codes, row)
		}
		for s := 0; s < n; s++ {
			p.Weights = append(p.Weights, float64(rng.Intn(5))+rng.Float64())
		}
		if got, want := EmpiricalFreqsPatterns(p), empiricalFreqsPatternsDirect(p); got != want {
			t.Fatalf("case %d: hoisted %v, direct %v", k, got, want)
		}
	}
}

func TestBaseFreqsValidate(t *testing.T) {
	if err := Uniform().Validate(); err != nil {
		t.Error(err)
	}
	bad := BaseFreqs{0.5, 0.5, 0.5, 0.5}
	if err := bad.Validate(); err == nil {
		t.Error("sum 2 should fail")
	}
	bad = BaseFreqs{1, 0, 0, 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero frequency should fail")
	}
	n := (BaseFreqs{1, 1, 1, 1}).Normalize()
	if err := n.Validate(); err != nil {
		t.Error(err)
	}
}
