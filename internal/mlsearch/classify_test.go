package mlsearch

import (
	"testing"

	"repro/internal/likelihood"
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
