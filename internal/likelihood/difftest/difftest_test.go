package difftest

import (
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/seq"
)

// TestDifferentialCachedVsReference is the acceptance gate for the
// Engine seam: the CLV-cached production engine and the direct
// post-order reference engine must agree on total log-likelihoods,
// per-site log-likelihoods, and Newton-optimized branch lengths across
// 50+ seeded random tree/model cases. (The subtest keeps the name it had
// beside the removed float32 run.)
func TestDifferentialCachedVsReference(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		rep, err := Run(Options{
			EngineA: "cached",
			EngineB: "reference",
			Cases:   55,
			Seed:    1000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cases < 50 {
			t.Fatalf("only %d cases ran, want >= 50", rep.Cases)
		}
		for _, f := range rep.Failures {
			t.Error(f)
		}
		t.Logf("%d cases, max diffs: lnL %.3g, site %.3g, len %.3g",
			rep.Cases, rep.MaxLnLDiff, rep.MaxSiteDiff, rep.MaxLenDiff)
	})
}

// TestDifferentialSelf sanity-checks the harness itself: an engine
// compared against itself must agree to (better than) any tolerance, and
// the case generator must be deterministic for a fixed seed.
func TestDifferentialSelf(t *testing.T) {
	rep, err := Run(Options{
		EngineA: "reference",
		EngineB: "reference",
		Cases:   8,
		Seed:    77,
		Tol:     Tolerance{LnLRel: 1e-14, LnLAbs: 1e-12, SiteRel: 1e-14, SiteAbs: 1e-12, OptRel: 1e-14, OptAbs: 1e-12, LenRel: 1e-14, LenAbs: 1e-12},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures {
		t.Error(f)
	}
}

// TestDifferentialUnknownEngine: harness errors (not failures) on
// unregistered backend names.
func TestDifferentialUnknownEngine(t *testing.T) {
	if _, err := Run(Options{EngineA: "no-such-engine", Cases: 1}); err == nil {
		t.Fatal("unknown engine name did not error")
	}
}

// threadedCached is the cached engine at three kernel threads, a
// backend registered only for this package's tests; threadedEngines
// keeps every engine it built.
const threadedCached = "cached-threads3"

var threadedEngines []*likelihood.CachedEngine

func init() {
	likelihood.Register(threadedCached, func(m model.Model, p *seq.Patterns, _ likelihood.EngineOptions) (likelihood.Engine, error) {
		e, err := likelihood.New(m, p)
		if err != nil {
			return nil, err
		}
		e.SetThreads(3)
		threadedEngines = append(threadedEngines, e)
		return e, nil
	})
}

// TestDifferentialThreadedCached: the harness also holds when the cached
// engine shards its kernels over its thread pool — threading must not
// change results (the bit-identity contract) and therefore must not
// change agreement with the reference. The alignments are long enough
// (over likelihood.MinPoolPad patterns) for the engine to build its
// pool, so under -race this also watches the pool's spin/park protocol.
func TestDifferentialThreadedCached(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := Run(Options{
		EngineA:  threadedCached,
		EngineB:  "reference",
		Cases:    10,
		Seed:     4242,
		MinTaxa:  11,
		MaxTaxa:  13,
		MinSites: 3400,
		MaxSites: 3800,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range threadedEngines {
		if e.Stats().ShardDispatches == 0 {
			t.Errorf("case %d: the threaded engine never used its pool", i)
		}
	}
	for _, f := range rep.Failures {
		t.Error(f)
	}
}
