package model

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/seq"
)

func randomFreqs(rng *rand.Rand) seq.BaseFreqs {
	var f seq.BaseFreqs
	for {
		sum := 0.0
		for i := range f {
			f[i] = 0.05 + rng.Float64()
			sum += f[i]
		}
		for i := range f {
			f[i] /= sum
		}
		if f.Validate() == nil {
			return f
		}
	}
}

func allModels(t *testing.T, freqs seq.BaseFreqs) []Model {
	t.Helper()
	f84, err := NewF84(freqs, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	hky, err := NewHKY85(freqs, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	k80, err := NewK80(2.0)
	if err != nil {
		t.Fatal(err)
	}
	return []Model{f84, hky, k80, NewJC69()}
}

func TestModelsValidate(t *testing.T) {
	freqs := seq.BaseFreqs{0.31, 0.18, 0.22, 0.29}
	for _, m := range allModels(t, freqs) {
		if err := Validate(m); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

// TestFromDecomposition: a model rebuilt from another's numbers returns
// those numbers, and numbers no reversible model produces are refused.
func TestFromDecomposition(t *testing.T) {
	freqs := seq.BaseFreqs{0.31, 0.18, 0.22, 0.29}
	for _, m := range allModels(t, freqs) {
		got, err := FromDecomposition(m.Name(), m.Freqs(), *m.Decomposition())
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if got.Name() != m.Name() || got.Freqs() != m.Freqs() || !reflect.DeepEqual(got.Decomposition(), m.Decomposition()) {
			t.Errorf("%s changed across FromDecomposition", m.Name())
		}
	}
	f84, err := NewF84(freqs, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(f *seq.BaseFreqs, d *Decomposition){
		"K = 0":                func(f *seq.BaseFreqs, d *Decomposition) { d.Lambda, d.Coef = nil, nil },
		"lambda[0] != 0":       func(f *seq.BaseFreqs, d *Decomposition) { d.Lambda[0] = 1 },
		"non-negative lambda":  func(f *seq.BaseFreqs, d *Decomposition) { d.Lambda[1] = 0 },
		"P(0) not identity":    func(f *seq.BaseFreqs, d *Decomposition) { d.Coef[2][0][0] += 0.5; d.Coef[2][0][1] -= 0.5 },
		"rows not stochastic":  func(f *seq.BaseFreqs, d *Decomposition) { d.Coef[1][2][3] += 0.01 },
		"detailed balance":     func(f *seq.BaseFreqs, d *Decomposition) { *f = seq.Uniform() },
		"unit rate":            func(f *seq.BaseFreqs, d *Decomposition) { d.Lambda[1] *= 2; d.Lambda[2] *= 2 },
		"not a distribution":   func(f *seq.BaseFreqs, d *Decomposition) { f[0] += 0.1 },
		"NaN frequency":        func(f *seq.BaseFreqs, d *Decomposition) { f[1] = math.NaN() },
		"infinite coefficient": func(f *seq.BaseFreqs, d *Decomposition) { d.Coef[0][0][0] = math.Inf(1) },
	} {
		f := freqs
		d := Decomposition{
			Lambda: append([]float64(nil), f84.Decomposition().Lambda...),
			Coef:   append([]PMatrix(nil), f84.Decomposition().Coef...),
		}
		spoil(&f, &d)
		if m, err := FromDecomposition("F84", f, d); err == nil {
			t.Errorf("%s: accepted as %s", name, m.Name())
		}
	}
}

// TestModelsValidateQuick validates every model under random frequency
// vectors and ratios.
func TestModelsValidateQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		freqs := randomFreqs(rng)
		ratio := 0.5 + 4*rng.Float64()
		f84, err := NewF84(freqs, ratio)
		if err != nil || Validate(f84) != nil {
			return false
		}
		hky, err := NewHKY85(freqs, 0.5+8*rng.Float64())
		if err != nil || Validate(hky) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestChapmanKolmogorov: P(z1)·P(z2) = P(z1+z2).
func TestChapmanKolmogorov(t *testing.T) {
	freqs := seq.BaseFreqs{0.4, 0.1, 0.15, 0.35}
	for _, m := range allModels(t, freqs) {
		d := m.Decomposition()
		var p1, p2, p3 PMatrix
		d.Probs(0.07, 1, &p1)
		d.Probs(0.23, 1, &p2)
		d.Probs(0.30, 1, &p3)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				prod := 0.0
				for k := 0; k < 4; k++ {
					prod += p1[i][k] * p2[k][j]
				}
				if math.Abs(prod-p3[i][j]) > 1e-10 {
					t.Errorf("%s: CK violated at (%d,%d): %g vs %g", m.Name(), i, j, prod, p3[i][j])
				}
			}
		}
	}
}

// TestLongBranchConvergesToFreqs: P_ij(z) -> π_j as z -> inf.
func TestLongBranchConvergesToFreqs(t *testing.T) {
	freqs := seq.BaseFreqs{0.2, 0.3, 0.4, 0.1}
	for _, m := range allModels(t, freqs) {
		var p PMatrix
		m.Decomposition().Probs(500, 1, &p)
		want := m.Freqs()
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if math.Abs(p[i][j]-want[j]) > 1e-9 {
					t.Errorf("%s: P(inf)[%d][%d] = %g, want %g", m.Name(), i, j, p[i][j], want[j])
				}
			}
		}
	}
}

// TestDerivativesMatchFiniteDifferences validates ProbsDeriv against
// numeric differentiation.
func TestDerivativesMatchFiniteDifferences(t *testing.T) {
	freqs := seq.BaseFreqs{0.27, 0.23, 0.26, 0.24}
	const h = 1e-6
	for _, m := range allModels(t, freqs) {
		d := m.Decomposition()
		for _, rate := range []float64{1, 2.5} {
			z := 0.17
			var p, dp, ddp, pPlus, pMinus PMatrix
			d.ProbsDeriv(z, rate, &p, &dp, &ddp)
			d.Probs(z+h, rate, &pPlus)
			d.Probs(z-h, rate, &pMinus)
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					fd1 := (pPlus[i][j] - pMinus[i][j]) / (2 * h)
					fd2 := (pPlus[i][j] - 2*p[i][j] + pMinus[i][j]) / (h * h)
					if math.Abs(fd1-dp[i][j]) > 1e-6 {
						t.Errorf("%s rate %g: dP[%d][%d] = %g, finite diff %g", m.Name(), rate, i, j, dp[i][j], fd1)
					}
					if math.Abs(fd2-ddp[i][j]) > 1e-3 {
						t.Errorf("%s rate %g: ddP[%d][%d] = %g, finite diff %g", m.Name(), rate, i, j, ddp[i][j], fd2)
					}
				}
			}
		}
	}
}

// TestF84RatioAdjustment: a ratio too small for the frequencies builds
// the model at the raised ratio, whose transition fraction
// xi = 1 − λ1/λ2 is positive; a valid ratio is kept as given.
func TestF84RatioAdjustment(t *testing.T) {
	freqs := seq.BaseFreqs{0.25, 0.25, 0.25, 0.25}
	xi := func(m Model) float64 {
		l := m.Decomposition().Lambda
		return 1 - l[1]/l[2]
	}
	// minRatio for uniform freqs = (1/16+1/16)/(1/4) = 0.5.
	m, err := NewF84(freqs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	raised, err := NewF84(freqs, 0.5*1.000001)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, raised) {
		t.Error("ratio 0.1 should build the model at the raised ratio 0.5·1.000001")
	}
	if x := xi(m); x <= 0 {
		t.Errorf("adjusted model's xi = %g, want positive", x)
	}
	if err := Validate(m); err != nil {
		t.Errorf("adjusted model invalid: %v", err)
	}
	// Ratio 2 with uniform freqs: aa = 0.375, bb = 0.25, xi = 0.6.
	m2, err := NewF84(freqs, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if x := xi(m2); math.Abs(x-0.6) > 1e-12 {
		t.Errorf("xi = %g at ratio 2, want 0.6 (ratio kept as given)", x)
	}
}

func TestF84Errors(t *testing.T) {
	if _, err := NewF84(seq.Uniform(), -1); err == nil {
		t.Error("negative ratio should fail")
	}
	if _, err := NewF84(seq.BaseFreqs{1, 1, 1, 1}, 2); err == nil {
		t.Error("unnormalized frequencies should fail")
	}
	if _, err := NewHKY85(seq.Uniform(), 0); err == nil {
		t.Error("zero kappa should fail")
	}
}

// TestF84TransitionBias: at moderate branch lengths transitions (A<->G)
// must be more probable than transversions (A<->C) for ratio > 1.
func TestF84TransitionBias(t *testing.T) {
	m, err := NewF84(seq.Uniform(), 4.0)
	if err != nil {
		t.Fatal(err)
	}
	var p PMatrix
	m.Decomposition().Probs(0.1, 1, &p)
	if p[0][2] <= p[0][1] {
		t.Errorf("P(A->G)=%g should exceed P(A->C)=%g with ratio 4", p[0][2], p[0][1])
	}
}

func TestK80EqualsJCWhenKappa1(t *testing.T) {
	k80, err := NewK80(1.0)
	if err != nil {
		t.Fatal(err)
	}
	jc := NewJC69()
	var p1, p2 PMatrix
	k80.Decomposition().Probs(0.2, 1, &p1)
	jc.Decomposition().Probs(0.2, 1, &p2)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(p1[i][j]-p2[i][j]) > 1e-12 {
				t.Errorf("K80(1) != JC69 at (%d,%d): %g vs %g", i, j, p1[i][j], p2[i][j])
			}
		}
	}
}

// TestRateScaling: Probs(z, r) == Probs(z*r, 1).
func TestRateScaling(t *testing.T) {
	m, _ := NewF84(seq.BaseFreqs{0.3, 0.2, 0.2, 0.3}, 2)
	var p1, p2 PMatrix
	m.Decomposition().Probs(0.1, 3, &p1)
	m.Decomposition().Probs(0.3, 1, &p2)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(p1[i][j]-p2[i][j]) > 1e-14 {
				t.Errorf("rate scaling broken at (%d,%d)", i, j)
			}
		}
	}
}

func TestDiscreteGammaMeanOne(t *testing.T) {
	for _, alpha := range []float64{0.2, 0.5, 1, 2, 10} {
		for _, k := range []int{1, 2, 4, 8} {
			rates, err := DiscreteGamma(alpha, k)
			if err != nil {
				t.Fatalf("alpha=%g k=%d: %v", alpha, k, err)
			}
			if len(rates) != k {
				t.Fatalf("got %d rates, want %d", len(rates), k)
			}
			mean := 0.0
			for i := 1; i < k; i++ {
				if rates[i] <= rates[i-1] {
					t.Errorf("alpha=%g k=%d: rates not increasing: %v", alpha, k, rates)
				}
			}
			for _, r := range rates {
				mean += r
			}
			mean /= float64(k)
			if math.Abs(mean-1) > 1e-9 {
				t.Errorf("alpha=%g k=%d: mean rate %g, want 1", alpha, k, mean)
			}
		}
	}
}

func TestDiscreteGammaSpread(t *testing.T) {
	// Smaller alpha means more heterogeneity: wider rate spread.
	lo, _ := DiscreteGamma(0.3, 4)
	hi, _ := DiscreteGamma(5.0, 4)
	if lo[3]-lo[0] <= hi[3]-hi[0] {
		t.Errorf("alpha=0.3 spread %g should exceed alpha=5 spread %g", lo[3]-lo[0], hi[3]-hi[0])
	}
}

func TestDiscreteGammaErrors(t *testing.T) {
	if _, err := DiscreteGamma(0, 4); err == nil {
		t.Error("alpha=0 should fail")
	}
	if _, err := DiscreteGamma(1, 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestRegIncGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 1, 3, 10} {
		got := regIncGammaLower(1, x)
		want := 1 - math.Exp(-x)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1,%g) = %g, want %g", x, got, want)
		}
	}
	// P(a, 0) = 0; P monotone increasing in x.
	if regIncGammaLower(2.5, 0) != 0 {
		t.Error("P(a,0) != 0")
	}
	prev := 0.0
	for x := 0.5; x < 20; x += 0.5 {
		v := regIncGammaLower(2.5, x)
		if v < prev {
			t.Errorf("P(2.5,x) not monotone at %g", x)
		}
		prev = v
	}
	if prev < 0.999999 {
		t.Errorf("P(2.5,20) = %g, want ~1", prev)
	}
}

func TestGammaQuantileInvertsCDF(t *testing.T) {
	for _, a := range []float64{0.5, 1, 3} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			q, err := gammaQuantile(a, p)
			if err != nil {
				t.Fatal(err)
			}
			if back := regIncGammaLower(a, q); math.Abs(back-p) > 1e-9 {
				t.Errorf("Q(%g,%g): CDF(quantile) = %g", a, p, back)
			}
		}
	}
}
