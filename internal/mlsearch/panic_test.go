package mlsearch

import (
	"math/rand"
	"reflect"
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
// name, panics with panicText once it has moved the tree's lengths.
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
	lnL, err := e.CachedEngine.OptimizeBranches(t, opt)
	if panicCalls.Add(1) == panicAt.Load() {
		panic(panicText)
	}
	return lnL, err
}

// TestEvaluationPanicFailsItsRun: a panic inside one candidate's
// evaluation is that candidate's failure. The run returns an error that
// names the panic, on the inline rung of a serial run and on a Local
// worker alike, instead of taking the process down.
func TestEvaluationPanicFailsItsRun(t *testing.T) {
	for _, opt := range []RunOptions{{Transport: Serial}, {Transport: Local, Workers: 2}} {
		cfg := testConfig(t, 8, 120, 5)
		cfg.Engine = panickyEngineName
		panicCalls.Store(0)
		panicAt.Store(4)
		_, err := Run(cfg, opt)
		if err == nil || !strings.Contains(err.Error(), "evaluation panicked: "+panicText) {
			t.Errorf("%s: Run returned %v, want the planted panic", opt.Transport, err)
			continue
		}
		if where := "inline"; opt.Transport == Serial && !strings.Contains(err.Error(), where) {
			t.Errorf("serial run's error does not call its evaluator %q: %v", where, err)
		}
	}
}

// TestEvaluatorRecoversFromPanic: a panic that leaves the evaluator's
// base half-optimized is forgotten with it, so the evaluator answers the
// same task again exactly as a fresh evaluator does.
func TestEvaluatorRecoversFromPanic(t *testing.T) {
	cfg := testConfig(t, 6, 100, 3)
	cfg.Engine = panickyEngineName
	norm, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	base, err := tree.RandomTree(norm.Taxa, rand.New(rand.NewSource(3)), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	task := Task{ID: 1, Round: 1, BaseNewick: base.Newick(), LocalTaxon: -1, Passes: 2, InsertEdge: -1, MoveP: -1, MoveS: -1, MoveTA: -1, MoveTB: -1}
	ev, err := NewConfigEvaluator(norm)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	panicCalls.Store(0)
	panicAt.Store(1)
	if _, err := ev.Evaluate(task); err == nil || !strings.Contains(err.Error(), "task 1: evaluation panicked: "+panicText) {
		t.Fatalf("first evaluation returned %v, want the planted panic", err)
	}
	got, err := ev.Evaluate(task)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewConfigEvaluator(norm)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Evaluate(task)
	if err != nil {
		t.Fatal(err)
	}
	if got.LnL != want.LnL || !reflect.DeepEqual(got.Lens, want.Lens) {
		t.Errorf("after the panic: lnL %v, lengths %v; a fresh evaluator: %v, %v", got.LnL, got.Lens, want.LnL, want.Lens)
	}
}
