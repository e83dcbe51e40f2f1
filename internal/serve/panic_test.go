package serve

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// panickyEngineName names a test-only backend: the cached engine whose
// panicAt-th OptimizeBranches call, counted over every engine of the
// name, panics with panicText.
const (
	panickyEngineName = "test-panicky"
	panicText         = "planted evaluation fault"
)

var panicCalls, panicAt atomic.Int64

type panickyEngine struct{ *likelihood.CachedEngine }

func init() {
	likelihood.Register(panickyEngineName, func(m model.Model, p *seq.Patterns, opt likelihood.EngineOptions) (likelihood.Engine, error) {
		e, err := likelihood.NewEngine(likelihood.DefaultEngine, m, p, opt)
		if err != nil {
			return nil, err
		}
		return panickyEngine{e.(*likelihood.CachedEngine)}, nil
	})
}

func (e panickyEngine) OptimizeBranches(t *tree.Tree, opt likelihood.OptOptions) (float64, error) {
	if panicCalls.Add(1) == panicAt.Load() {
		panic(panicText)
	}
	return e.CachedEngine.OptimizeBranches(t, opt)
}

// TestEvaluationPanicFailsOnlyItsJob: a panic while a pod's worker
// evaluates one candidate fails that job with the panic's text. Another
// tenant's job, submitted at the same time, ends done with the serial
// run's tree, and the daemon stays up.
func TestEvaluationPanicFailsOnlyItsJob(t *testing.T) {
	panicCalls.Store(0)
	panicAt.Store(3)
	s, err := NewServer(Options{DataDir: t.TempDir(), Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	bad := JobSpec{Tenant: "a", Alignment: testPhylipText(t, 6, 100, 1), Options: JobOptions{Seed: 3, Engine: panickyEngineName}}
	good := JobSpec{Tenant: "b", Alignment: testPhylipText(t, 6, 100, 2), Options: JobOptions{Seed: 5}}
	var ids []string
	for _, spec := range []JobSpec{bad, good} {
		rec, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	if rec := waitJob(t, s, ids[0], StateFailed); !strings.Contains(rec.Error, "evaluation panicked: "+panicText) {
		t.Errorf("failed job's error %q does not name the panic", rec.Error)
	}
	waitJob(t, s, ids[1], StateDone)
	res, _, err := s.Result(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, good)[0]
	if got := res.Jumbles[0]; got.Newick != want.BestNewick || got.LnL != want.LnL {
		t.Errorf("neighbour job: %q lnL %v, serial %q lnL %v", got.Newick, got.LnL, want.BestNewick, want.LnL)
	}
}
