package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
)

// foldModels are the five substitution models, one per decomposition
// size the fold has to handle: K = 2 (JC69), 3 (F84), 4 (K80, HKY85, GTR).
func foldModels(t *testing.T) []model.Model {
	t.Helper()
	freqs := seq.BaseFreqs{0.31, 0.19, 0.27, 0.23}
	must := func(m model.Model, err error) model.Model {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return []model.Model{
		model.NewJC69(),
		must(model.NewK80(3.5)),
		must(model.NewHKY85(freqs, 2.7)),
		must(model.NewF84(freqs, 2.0)),
		must(model.NewGTR(freqs, model.GTRRates{AC: 1.3, AG: 4.1, AT: 0.7, CG: 0.9, CT: 5.2, GT: 1})),
	}
}

// foldVectors fills the two partials of an artificial edge over the
// engine's padded axis. Patterns cycle through the shapes a real edge
// mixes: generic inner-node vectors spanning thirty orders of magnitude,
// a pair of identical tips (l = π_i·P_ii, the spectral sums all add),
// a pair of tips that disagree (l = π_i·P_ij → 0 with z, the spectral
// sums cancel), and an ambiguity code against an inner vector.
func foldVectors(e *CachedEngine, rng *rand.Rand) (a, b clvRef, av, bv [][4]float64) {
	av = make([][4]float64, e.npad)
	bv = make([][4]float64, e.npad)
	for i := range av {
		if e.origOfPad[i] < 0 {
			continue
		}
		generic := func() (v [4]float64) {
			scale := math.Exp(-70 * rng.Float64())
			for s := range v {
				v[s] = scale * rng.Float64()
			}
			return v
		}
		x, y := rng.Intn(4), rng.Intn(3)
		switch i % 4 {
		case 0:
			av[i], bv[i] = generic(), generic()
		case 1:
			av[i][x], bv[i][x] = 1, 1
		case 2:
			av[i][x], bv[i][(x+1+y)%4] = 1, 1
		case 3:
			av[i][x], av[i][(x+1+y)%4] = 1, 1
			bv[i] = generic()
		}
	}
	store := func(v [][4]float64) clvRef {
		ref := clvRef{f64: make([]float64, 4*e.npad), sc: e.tips[0].sc}
		for i := range v {
			for s := 0; s < 4; s++ {
				ref.f64[s*e.npad+i] = v[i][s]
			}
		}
		return ref
	}
	return store(av), store(bv), av, bv
}

// directDerivatives is the oracle: d1 and d2 straight from the 4×4
// transition matrix and its derivatives, three matrix products per
// pattern, no fold. dP and ddP are Decomposition.ProbsDeriv's. Its P is
// not usable as a reference at short lengths — an off-diagonal entry is
// a sum of K terms of size π that cancel to ≈ q_ij·z, so at z = 1e-8 it
// carries eight digits — and is rebuilt cancellation-free as
// I + Σ_{k≥1} C_k·expm1(λ_k r z). mag1/mag2 are the sums of the absolute
// values of the terms, the scale rounding errors are measured against.
func directDerivatives(e *CachedEngine, av, bv [][4]float64, z float64) (d1, d2, mag1, mag2 float64) {
	var pm, dm, ddm model.PMatrix
	for _, seg := range allSegs(e) {
		r := e.classRates[seg.ci]
		e.decomp.ProbsDeriv(z, r, &pm, &dm, &ddm)
		pm = model.PMatrix{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
		for k := 1; k < len(e.decomp.Lambda); k++ {
			x := math.Expm1(e.decomp.Lambda[k] * z * r)
			for s := 0; s < 4; s++ {
				for u := 0; u < 4; u++ {
					pm[s][u] += e.decomp.Coef[k][s][u] * x
				}
			}
		}
		for i := seg.plo; i < seg.plo+seg.hi-seg.lo; i++ {
			var l, dl, ddl float64
			for s := 0; s < 4; s++ {
				fa := e.freqs[s] * av[i][s]
				for u := 0; u < 4; u++ {
					l += fa * pm[s][u] * bv[i][u]
					dl += fa * dm[s][u] * bv[i][u]
					ddl += fa * ddm[s][u] * bv[i][u]
				}
			}
			w, r, q := e.weights[i], dl/l, ddl/l
			d1 += w * r
			d2 += w * (q - r*r)
			mag1 += w * math.Abs(r)
			mag2 += w * (math.Abs(q) + r*r)
		}
	}
	return
}

// allSegs lists the engine's shard segments in pattern order.
func allSegs(e *CachedEngine) []shardSeg {
	var segs []shardSeg
	for _, sh := range e.shards {
		segs = append(segs, sh.segs...)
	}
	return segs
}

// TestFoldMatchesDirectDerivatives: the folded derivatives — the fused
// fold+first-eval and the eval of a later iterate alike — agree with the
// direct oracle to 1e-12 of the summed term magnitudes (measured: 1.4e-15), for every model,
// with one and with four rate classes, at both length bounds, near zero, in the interior and at saturation.
func TestFoldMatchesDirectDerivatives(t *testing.T) {
	const tol = 1e-12
	lengths := []float64{MinBranchLength, 3e-7, 1e-3, 0.07, 0.9, 4, MaxBranchLength}
	rng := rand.New(rand.NewSource(29))
	rows := randomRows(rng, 6, 400)
	aln := seq.NewAlignment(len(rows))
	for i, r := range rows {
		if err := aln.Add(taxaNames(len(rows))[i], r); err != nil {
			t.Fatal(err)
		}
	}
	checked := 0
	for _, m := range foldModels(t) {
		for _, classes := range [][]float64{{1}, {0.25, 1, 3, 0.6}} {
			p, err := seq.Compress(aln, seq.CompressOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.Rates {
				p.Rates[i] = classes[i%len(classes)]
			}
			e, err := New(m, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(e.classRates) != len(classes) || e.npat < 64 {
				t.Fatalf("fixture: %d classes, %d patterns", len(e.classRates), e.npat)
			}
			a, b, av, bv := foldVectors(e, rng)
			name := fmt.Sprintf("%s classes=%d", m.Name(), len(classes))
			check := func(path string, z, d1, d2 float64) {
				t.Helper()
				o1, o2, mag1, mag2 := directDerivatives(e, av, bv, z)
				if math.IsNaN(d1) || math.Abs(d1-o1) > tol*mag1 {
					t.Errorf("%s z=%g %s: d1 %.15g, direct %.15g (off %.2g of the terms)", name, z, path, d1, o1, math.Abs(d1-o1)/mag1)
				}
				if math.IsNaN(d2) || math.Abs(d2-o2) > tol*mag2 {
					t.Errorf("%s z=%g %s: d2 %.15g, direct %.15g (off %.2g of the terms)", name, z, path, d2, o2, math.Abs(d2-o2)/mag2)
				}
				checked++
			}
			for i, z := range lengths {
				d1, d2 := e.edgeGradient(a, b, z)
				check("fold", z, d1, d2)
				// A later iterate of the same solve, at another length.
				z2 := lengths[(i+3)%len(lengths)]
				d1, d2 = e.specGradient(kSpecEval, z2)
				check("eval", z2, d1, d2)
			}
		}
	}
	if checked != 5*2*len(lengths)*2 {
		t.Fatalf("%d comparisons made", checked)
	}
}
