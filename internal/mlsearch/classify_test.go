package mlsearch

import (
	"testing"

	"repro/internal/likelihood"
	"repro/internal/tree"
)

// TestConfigEngineValidation: Normalize resolves the engine name through
// the likelihood registry — empty maps to the default backend, unknown
// names are rejected up front rather than at first evaluation.
func TestConfigEngineValidation(t *testing.T) {
	base := testConfig(t, 4, 40, 1)
	for _, name := range append([]string{""}, likelihood.Engines()...) {
		cfg := base
		cfg.Engine = name
		norm, err := cfg.Normalize()
		if err != nil {
			t.Fatalf("Normalize(engine=%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = likelihood.DefaultEngine
		}
		if norm.Engine != want {
			t.Errorf("Normalize(engine=%q) resolved to %q, want %q", name, norm.Engine, want)
		}
	}
	cfg := base
	cfg.Engine = "no-such-backend"
	if _, err := cfg.Normalize(); err == nil {
		t.Error("unknown engine name accepted")
	}
}

// TestSerialSearchReferenceEngine runs a small end-to-end search on the
// reference backend and checks it lands on the same topology as the
// cached engine with a log-likelihood inside the differential harness's
// float64 tolerance. This exercises the full Engine surface (evaluation,
// smoothing, insertion scoring) through the search loop rather than the
// harness's synthetic cases.
func TestSerialSearchReferenceEngine(t *testing.T) {
	cfg := testConfig(t, 7, 120, 9)
	cached, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = "reference"
	ref, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.BestNewick != cached.BestNewick {
		t.Errorf("reference engine chose a different topology:\n  cached:    %s\n  reference: %s",
			cached.BestNewick, ref.BestNewick)
	}
	diff := ref.LnL - cached.LnL
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-4 && diff > 1e-7*-cached.LnL {
		t.Errorf("lnL diverged: cached %.10f, reference %.10f", cached.LnL, ref.LnL)
	}
}

// TestSerialSearchGradientSmoothing runs the same end-to-end search under
// both full-smoothing modes. Candidate scoring is mode-independent
// (insertion and junction-local optimization always sweep), so the search
// must adopt the identical topology; the final smoothing passes may stop
// at slightly different points on the shared optimum, so the lnL is
// compared at the differential harness's float64 tolerance.
func TestSerialSearchGradientSmoothing(t *testing.T) {
	cfg := testConfig(t, 7, 120, 9)
	sweep, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SmoothMode = likelihood.SmoothGradient
	grad, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tree.ParseNewick(sweep.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := tree.ParseNewick(grad.BestNewick, cfg.Taxa)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.SameTopology(st, gt) {
		t.Errorf("gradient smoothing chose a different topology:\n  sweep:    %s\n  gradient: %s",
			sweep.BestNewick, grad.BestNewick)
	}
	diff := grad.LnL - sweep.LnL
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-4 && diff > 1e-7*-sweep.LnL {
		t.Errorf("lnL diverged: sweep %.10f, gradient %.10f", sweep.LnL, grad.LnL)
	}
}
