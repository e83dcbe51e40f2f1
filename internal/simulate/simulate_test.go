package simulate

import (
	"math"
	"testing"

	"repro/internal/seq"
	"repro/internal/tree"
)

func TestNewBasicShape(t *testing.T) {
	ds, err := New(Options{Taxa: 10, Sites: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Alignment.NumSeqs() != 10 || ds.Alignment.NumSites() != 300 {
		t.Fatalf("shape %dx%d", ds.Alignment.NumSeqs(), ds.Alignment.NumSites())
	}
	if err := ds.Alignment.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ds.TrueTree.Validate(true); err != nil {
		t.Fatal(err)
	}
	if ds.TrueTree.NumLeaves() != 10 {
		t.Errorf("true tree has %d leaves", ds.TrueTree.NumLeaves())
	}
	if len(ds.SiteRates) != 300 {
		t.Errorf("%d site rates", len(ds.SiteRates))
	}
}

// TestNewDeterministic: one seed gives byte-identical alignments, with
// and without rate heterogeneity. With GammaAlpha > 0 the sites evolve in
// per-rate groups; the order of the groups must not depend on map
// iteration (it is random per range statement, so run with -count=20 to
// see a regression reliably).
func TestNewDeterministic(t *testing.T) {
	for _, alpha := range []float64{0, 0.5} {
		a, err := New(Options{Taxa: 8, Sites: 100, Seed: 42, GammaAlpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Options{Taxa: 8, Sites: 100, Seed: 42, GammaAlpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Alignment.Data {
			if a.Alignment.Row(i) != b.Alignment.Row(i) {
				t.Fatalf("GammaAlpha %g: same seed gave different alignments", alpha)
			}
		}
	}
	a, _ := New(Options{Taxa: 8, Sites: 100, Seed: 42})
	c, _ := New(Options{Taxa: 8, Sites: 100, Seed: 43})
	same := true
	for i := range a.Alignment.Data {
		if a.Alignment.Row(i) != c.Alignment.Row(i) {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical alignments")
	}
}

// TestCloseTaxaAreSimilar: sequences separated by short paths must agree
// at more sites than distant ones, on average.
func TestEvolutionRespectsTree(t *testing.T) {
	ds, err := New(Options{Taxa: 12, Sites: 800, Seed: 5, MeanBranchLen: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Path length between two taxa on the true tree.
	dist := func(a, b int) float64 {
		la := ds.TrueTree.LeafByTaxon(a)
		var found float64
		var walk func(n, parent *tree.Node, d float64) bool
		walk = func(n, parent *tree.Node, d float64) bool {
			if n.Leaf() && n.Taxon == b {
				found = d
				return true
			}
			for _, m := range n.Nbr {
				if m != parent && walk(m, n, d+m.LenTo(n)) {
					return true
				}
			}
			return false
		}
		walk(la, nil, 0)
		return found
	}
	mismatch := func(a, b int) float64 {
		diff := 0
		for s := 0; s < ds.Alignment.NumSites(); s++ {
			if ds.Alignment.Data[a][s] != ds.Alignment.Data[b][s] {
				diff++
			}
		}
		return float64(diff) / float64(ds.Alignment.NumSites())
	}
	// Compare the closest pair against the farthest pair.
	type pair struct {
		a, b int
		d    float64
	}
	var closest, farthest pair
	closest.d = math.Inf(1)
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			d := dist(a, b)
			if d < closest.d {
				closest = pair{a, b, d}
			}
			if d > farthest.d {
				farthest = pair{a, b, d}
			}
		}
	}
	if mismatch(closest.a, closest.b) >= mismatch(farthest.a, farthest.b) {
		t.Errorf("closest pair (d=%.3f) mismatches %.3f >= farthest pair (d=%.3f) %.3f",
			closest.d, mismatch(closest.a, closest.b), farthest.d, mismatch(farthest.a, farthest.b))
	}
}

// TestBaseCompositionTracksModel: simulated composition approaches the
// model's equilibrium frequencies.
func TestBaseCompositionTracksModel(t *testing.T) {
	ds, err := New(Options{Taxa: 20, Sites: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	freqs, err := seq.EmpiricalFreqs(ds.Alignment)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < seq.NumBases; b++ {
		if math.Abs(freqs[b]-RRNAFreqs[b]) > 0.05 {
			t.Errorf("freq[%c] = %.3f, equilibrium %.3f", seq.BaseName(b), freqs[b], RRNAFreqs[b])
		}
	}
}

func TestGammaRatesHeterogeneity(t *testing.T) {
	ds, err := New(Options{Taxa: 6, Sites: 500, Seed: 3, GammaAlpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	mean := 0.0
	for _, r := range ds.SiteRates {
		distinct[r] = true
		mean += r
	}
	mean /= float64(len(ds.SiteRates))
	if len(distinct) < 3 {
		t.Errorf("only %d distinct rates", len(distinct))
	}
	if math.Abs(mean-1) > 0.15 {
		t.Errorf("mean site rate %.3f, want ~1", mean)
	}
}

func TestPaperPresets(t *testing.T) {
	cases := []struct {
		p     PaperPreset
		taxa  int
		sites int
	}{
		{Preset50, 50, 1858},
		{Preset101, 101, 1858},
		{Preset150, 150, 1269},
	}
	for _, c := range cases {
		opt, err := PaperOptions(c.p, 7)
		if err != nil {
			t.Fatal(err)
		}
		if opt.Taxa != c.taxa || opt.Sites != c.sites {
			t.Errorf("%s: %dx%d, want %dx%d", c.p, opt.Taxa, opt.Sites, c.taxa, c.sites)
		}
	}
	if _, err := PaperOptions("nope", 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Taxa: 2, Sites: 10}); err == nil {
		t.Error("2 taxa accepted")
	}
	if _, err := New(Options{Taxa: 5, Sites: 0}); err == nil {
		t.Error("0 sites accepted")
	}
}
