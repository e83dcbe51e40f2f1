package seq

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
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

// TestCompressRefusesNonFinite: -weights and -rates files are parsed
// with strconv.ParseFloat, which accepts NaN and Inf. Compress refuses
// them by the join welcome's rule (weights finite and non-negative, rates
// finite and positive) and names the site, so a serial or in-process run
// fails the way a TCP run's welcome already does instead of computing
// garbage.
func TestCompressRefusesNonFinite(t *testing.T) {
	a := mkAlign(t, "ACGT")
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name           string
		weights, rates []float64
		want           string
	}{
		{"nan weight", []float64{1, nan, 1, 1}, nil, "weight NaN at site 2"},
		{"+inf weight", []float64{1, 1, inf, 1}, nil, "weight +Inf at site 3"},
		{"-inf weight", []float64{-inf, 1, 1, 1}, nil, "weight -Inf at site 1"},
		{"nan rate", nil, []float64{1, 1, 1, nan}, "rate NaN at site 4"},
		{"+inf rate", nil, []float64{inf, 1, 1, 1}, "rate +Inf at site 1"},
	}
	for _, c := range cases {
		_, err := Compress(a, CompressOptions{Weights: c.weights, Rates: c.rates})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
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

// compressBySort is Compress as it was before the radix sort: the
// columns ordered by sort.SliceStable under a comparison that walks the
// rows, then the rate. It is the oracle the radix sort must equal field
// for field.
func compressBySort(a *Alignment, opt CompressOptions) (*Patterns, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	nsites := a.NumSites()
	nseqs := a.NumSeqs()
	if opt.Weights != nil && len(opt.Weights) != nsites {
		return nil, fmt.Errorf("seq: %d weights for %d sites", len(opt.Weights), nsites)
	}
	if opt.Rates != nil && len(opt.Rates) != nsites {
		return nil, fmt.Errorf("seq: %d rates for %d sites", len(opt.Rates), nsites)
	}
	weightAt := func(s int) float64 {
		if opt.Weights == nil {
			return 1
		}
		return opt.Weights[s]
	}
	rateAt := func(s int) float64 {
		if opt.Rates == nil {
			return 1
		}
		return opt.Rates[s]
	}
	for s := 0; s < nsites; s++ {
		if w := weightAt(s); !(w >= 0 && !math.IsInf(w, 1)) {
			return nil, fmt.Errorf("seq: weight %g at site %d is not finite and non-negative", w, s+1)
		}
		if r := rateAt(s); !(r > 0 && !math.IsInf(r, 1)) {
			return nil, fmt.Errorf("seq: rate %g at site %d is not finite and positive", r, s+1)
		}
	}

	p := &Patterns{
		Codes:  make([][]Code, nseqs),
		SiteOf: make([]int, nsites),
	}
	for i := range p.Codes {
		p.Codes[i] = make([]Code, 0, nsites)
	}
	order := make([]int, 0, nsites)
	for s := 0; s < nsites; s++ {
		if weightAt(s) > 0 {
			order = append(order, s)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("seq: all site weights are zero")
	}
	cmp := func(x, y int) int {
		for i := 0; i < nseqs; i++ {
			cx, cy := a.Data[i][x], a.Data[i][y]
			if cx != cy {
				return int(cx) - int(cy)
			}
		}
		switch rx, ry := rateAt(x), rateAt(y); {
		case rx < ry:
			return -1
		case rx > ry:
			return 1
		}
		return 0
	}
	if !opt.Disable {
		sort.SliceStable(order, func(i, j int) bool { return cmp(order[i], order[j]) < 0 })
	}
	for idx, s := range order {
		newPattern := idx == 0 || opt.Disable || cmp(order[idx-1], s) != 0
		if newPattern {
			for i := 0; i < nseqs; i++ {
				p.Codes[i] = append(p.Codes[i], a.Data[i][s])
			}
			p.Weights = append(p.Weights, 0)
			p.Rates = append(p.Rates, rateAt(s))
		}
		pat := len(p.Weights) - 1
		p.Weights[pat] += weightAt(s)
		p.SiteOf[s] = pat
	}
	for s := 0; s < nsites; s++ {
		if weightAt(s) == 0 {
			p.SiteOf[s] = -1
		}
	}
	return p, nil
}

// checkCompressAgainstSort fails t unless Compress and the comparison-sort
// oracle return the same Patterns, field for field, or both an error.
func checkCompressAgainstSort(t *testing.T, a *Alignment, opt CompressOptions) {
	t.Helper()
	got, gotErr := Compress(a, opt)
	want, wantErr := compressBySort(a, opt)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error %v, oracle's %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Compress differs from the comparison sort (%d rows, %d sites, %+v):\n got %+v\nwant %+v",
			a.NumSeqs(), a.NumSites(), opt, got, want)
	}
}

// TestCompressMatchesComparisonSort: the radix sort must give what the
// comparison sort gave — pattern order, weights summed in site order,
// SiteOf and Rates — on random alignments with odd and even row counts,
// few letters (many equal columns) or every ambiguity code, zero and
// fractional weights, three rate classes, and Disable.
func TestCompressMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for k := 0; k < 5000; k++ {
		nseq := 1 + rng.Intn(9)
		nsites := 1 + rng.Intn(60)
		letters := []int{2, 4, 15}[k%3]
		a := NewAlignment(nseq)
		for i := 0; i < nseq; i++ {
			row := make([]Code, nsites)
			for s := range row {
				if letters == 15 {
					row[s] = Code(1 + rng.Intn(15))
				} else {
					row[s] = Code(1 << uint(rng.Intn(letters)))
				}
			}
			if err := a.AddCoded(string(rune('a'+i)), row); err != nil {
				t.Fatal(err)
			}
		}
		var opt CompressOptions
		if k%2 == 1 {
			opt.Weights = make([]float64, nsites)
			for s := range opt.Weights {
				opt.Weights[s] = []float64{0, 1, 0.25, 2.5, 0.1}[rng.Intn(5)]
			}
		}
		if k%4 >= 2 {
			opt.Rates = make([]float64, nsites)
			for s := range opt.Rates {
				opt.Rates[s] = []float64{0.3, 1, 2.7}[rng.Intn(3)]
			}
		}
		opt.Disable = k%8 == 7
		checkCompressAgainstSort(t, a, opt)
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
