package main

import (
	"fmt"
	"time"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// traceEngineName is the benchmark-only backend name. Selecting it
// through Config.Engine / DataBundle.Engine / WorkerHooks.Engine makes
// every evaluator of a run — serial dispatcher, Local and TCP workers,
// the foreman's inline fallback — build the timing decorator.
const traceEngineName = "benchtrace"

func init() {
	likelihood.Register(traceEngineName, newTracedEngine)
}

// tracedEngine times the five evaluation entry points of the production
// engine and nothing else. Embedding the concrete engine forwards every
// capability it has (Threader, Closer, StatsReporter, OpsReporter,
// Invalidator, GradientSmoother, PrecisionReporter) and any it grows
// later; results are the inner engine's, bit for bit.
type tracedEngine struct {
	*likelihood.CachedEngine
	buf *spanBuf
}

func newTracedEngine(m model.Model, p *seq.Patterns, opt likelihood.EngineOptions) (likelihood.Engine, error) {
	inner, err := likelihood.NewEngine(likelihood.DefaultEngine, m, p, opt)
	if err != nil {
		return nil, err
	}
	cached, ok := inner.(*likelihood.CachedEngine)
	if !ok {
		return nil, fmt.Errorf("benchmark: default engine is %T, not *likelihood.CachedEngine", inner)
	}
	e := &tracedEngine{CachedEngine: cached}
	if t := activeTracer.Load(); t != nil {
		t.mu.Lock()
		t.engines = append(t.engines, e)
		id := -len(t.engines)
		t.mu.Unlock()
		e.buf = t.buf(id)
	}
	return e, nil
}

// record appends one engine span; engines built outside a traced run
// (buf == nil) only forward.
func (e *tracedEngine) record(name string, start time.Time) {
	if e.buf != nil {
		e.buf.add(layerEngine, name, start, time.Now(), 0)
	}
}

func (e *tracedEngine) LogLikelihood(t *tree.Tree) (float64, error) {
	defer e.record("loglik", time.Now())
	return e.CachedEngine.LogLikelihood(t)
}

func (e *tracedEngine) SiteLogLikelihoods(t *tree.Tree) ([]float64, error) {
	defer e.record("loglik", time.Now())
	return e.CachedEngine.SiteLogLikelihoods(t)
}

func (e *tracedEngine) OptimizeBranches(t *tree.Tree, opt likelihood.OptOptions) (float64, error) {
	defer e.record("optimize_branches", time.Now())
	return e.CachedEngine.OptimizeBranches(t, opt)
}

func (e *tracedEngine) OptimizeEdge(t *tree.Tree, ed tree.Edge) (float64, error) {
	defer e.record("optimize_edge", time.Now())
	return e.CachedEngine.OptimizeEdge(t, ed)
}

func (e *tracedEngine) NewInsertScorer(base *tree.Tree, taxon int) (likelihood.InsertScorer, error) {
	defer e.record("insert_prepare", time.Now())
	sc, err := e.CachedEngine.NewInsertScorer(base, taxon)
	if err != nil {
		return nil, err
	}
	return &tracedScorer{inner: sc, eng: e}, nil
}

type tracedScorer struct {
	inner likelihood.InsertScorer
	eng   *tracedEngine
}

func (s *tracedScorer) Score(ed tree.Edge, passes int) (likelihood.InsertScore, error) {
	defer s.eng.record("insert_score", time.Now())
	return s.inner.Score(ed, passes)
}
