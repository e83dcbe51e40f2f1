package difftest

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// Finite-difference cross-validation of the analytic all-branches
// gradient: for every branch of every seeded case, the D1/D2 an engine's
// GradientSmoother capability reports must match central differences of
// the reference engine's log-likelihood. This checks the gradient
// kernel against a computation that shares nothing with it — the
// reference engine recomputes from scratch in plain post-order, and
// differentiation happens numerically rather than via the dP/dz
// matrices — so an error in the derivative coefficient tables, the
// rate-class weighting, or the up-partial recursion cannot cancel out.

// GradTolerance bounds analytic-vs-finite-difference disagreement for
// the first and second derivatives, in the combined relative/absolute
// form used by Tolerance.
type GradTolerance struct {
	D1Rel, D1Abs float64
	D2Rel, D2Abs float64
}

// DefaultGradTolerance returns the documented tolerance for checking an
// engine's analytic gradient against central differences.
//
// The bounds are set by the finite differences, not the analytic side:
// with relative steps of fdD1Step/fdD2Step the truncation error is
// ~h²·|d³L/dz³|/6 and the subtraction cancels ~h⁻¹ (d1) or ~h⁻² (d2)
// of float64's headroom, which on |lnL| up to ~10⁴ leaves roughly four
// significant digits for d1 and two for d2.
func DefaultGradTolerance() GradTolerance {
	return GradTolerance{
		D1Rel: 1e-3, D1Abs: 5e-2,
		D2Rel: 1e-2, D2Abs: 2.0,
	}
}

const (
	// fdMinLen lifts branch lengths off the kernel clamp before
	// differencing, so the probes z±h stay inside the smooth regime
	// where d/dz is well defined.
	fdMinLen = 5e-3
	// fdD1Step and fdD2Step are the relative central-difference steps.
	// The d2 step is wider: the second difference divides by h², so its
	// rounding error grows twice as fast as truncation shrinks.
	fdD1Step = 1e-4
	fdD2Step = 2e-3
)

// GradReport summarizes a GradientCheck run.
type GradReport struct {
	// Cases is the number of cases run; Edges the total branches checked.
	Cases, Edges int
	// MaxD1Diff/MaxD2Diff are the largest absolute analytic-vs-FD
	// disagreements observed (violating or not).
	MaxD1Diff, MaxD2Diff float64
	// Failures lists every tolerance violation, one line each.
	Failures []string
}

// GradientCheck runs the finite-difference gradient check over the same
// seeded case matrix as Run: EngineA (which must have the
// GradientSmoother capability) computes the analytic gradient, and every
// entry is compared against central differences of the reference
// engine's log-likelihood. Options
// are interpreted as in Run; Passes and EngineB are unused.
func GradientCheck(opt Options) (GradReport, error) {
	opt = opt.withDefaults()
	if _, err := likelihood.ParseEngine(opt.EngineA); err != nil {
		return GradReport{}, err
	}
	gtol := DefaultGradTolerance()
	var rep GradReport
	for i := 0; i < opt.Cases; i++ {
		seed := opt.Seed + int64(i)
		if err := runGradCase(opt, gtol, seed, &rep); err != nil {
			return rep, fmt.Errorf("difftest: gradient case seed=%d: %w", seed, err)
		}
		rep.Cases++
	}
	return rep, nil
}

func runGradCase(opt Options, gtol GradTolerance, seed int64, rep *GradReport) error {
	rng := rand.New(rand.NewSource(seed))
	taxa := opt.MinTaxa + rng.Intn(opt.MaxTaxa-opt.MinTaxa+1)
	sites := opt.MinSites + rng.Intn(opt.MaxSites-opt.MinSites+1)
	m, p, tr, err := randomCase(rng, taxa, sites)
	if err != nil {
		return err
	}
	for _, ed := range tr.Edges() {
		if ed.Length() < fdMinLen {
			tree.SetLen(ed.A, ed.B, fdMinLen)
		}
	}

	eng, err := likelihood.NewEngine(opt.EngineA, m, p, likelihood.EngineOptions{})
	if err != nil {
		return err
	}
	defer likelihood.CloseEngine(eng)
	grads, _, ok, err := likelihood.BranchGradientsOf(eng, tr, nil)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("engine %q has no GradientSmoother capability", opt.EngineA)
	}

	ref, err := likelihood.NewEngine("reference", m, p, likelihood.EngineOptions{})
	if err != nil {
		return err
	}
	defer likelihood.CloseEngine(ref)
	tb := tr.Clone()
	base, err := ref.LogLikelihood(tb)
	if err != nil {
		return err
	}

	fail := func(format string, args ...any) {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("seed=%d taxa=%d sites=%d model=%s: %s",
				seed, taxa, sites, m.Name(), fmt.Sprintf(format, args...)))
	}
	at := func(a, b *tree.Node, z float64) (float64, error) {
		tree.SetLen(a, b, z)
		return ref.LogLikelihood(tb)
	}
	for _, g := range grads {
		a, b := tb.Nodes[g.A.ID], tb.Nodes[g.B.ID]
		z := g.Z

		h := fdD1Step * z
		lp, err := at(a, b, z+h)
		if err != nil {
			return err
		}
		lm, err := at(a, b, z-h)
		if err != nil {
			return err
		}
		d1fd := (lp - lm) / (2 * h)

		h2 := fdD2Step * z
		lp2, err := at(a, b, z+h2)
		if err != nil {
			return err
		}
		lm2, err := at(a, b, z-h2)
		if err != nil {
			return err
		}
		d2fd := (lp2 - 2*base + lm2) / (h2 * h2)
		tree.SetLen(a, b, z)

		rep.Edges++
		if d := math.Abs(g.D1 - d1fd); d > rep.MaxD1Diff {
			rep.MaxD1Diff = d
		}
		if d := math.Abs(g.D2 - d2fd); d > rep.MaxD2Diff {
			rep.MaxD2Diff = d
		}
		if !within(g.D1, d1fd, gtol.D1Rel, gtol.D1Abs) {
			fail("edge %d-%d z=%.6g d1 analytic %.8g vs FD %.8g, diff %.3g",
				g.A.ID, g.B.ID, z, g.D1, d1fd, math.Abs(g.D1-d1fd))
		}
		if !within(g.D2, d2fd, gtol.D2Rel, gtol.D2Abs) {
			fail("edge %d-%d z=%.6g d2 analytic %.8g vs FD %.8g, diff %.3g",
				g.A.ID, g.B.ID, z, g.D2, d2fd, math.Abs(g.D2-d2fd))
		}
	}
	return nil
}
