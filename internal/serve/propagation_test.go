package serve

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/tree"
)

// The probe engine is the production engine plus a record of how it was
// built and on which model, which smoothing mode every unrestricted OptimizeBranches asked
// for, and whether it was closed. Selecting it as a run's engine makes
// the run's evaluation identity observable at every evaluator the run
// builds, on whichever side of whichever transport.
const probeEngineName = "probe"

type probeRecord struct {
	model  model.Model
	opt    likelihood.EngineOptions
	modes  []likelihood.SmoothMode
	closed bool
}

var probe struct {
	mu    sync.Mutex
	built []*probeRecord
}

type probeEngine struct {
	*likelihood.CachedEngine
	rec *probeRecord
}

func init() {
	likelihood.Register(probeEngineName, func(m model.Model, p *seq.Patterns, opt likelihood.EngineOptions) (likelihood.Engine, error) {
		inner, err := likelihood.NewEngine(likelihood.DefaultEngine, m, p, opt)
		if err != nil {
			return nil, err
		}
		rec := &probeRecord{model: m, opt: opt}
		probe.mu.Lock()
		probe.built = append(probe.built, rec)
		probe.mu.Unlock()
		return &probeEngine{CachedEngine: inner.(*likelihood.CachedEngine), rec: rec}, nil
	})
}

func (e *probeEngine) OptimizeBranches(t *tree.Tree, opt likelihood.OptOptions) (float64, error) {
	if opt.Around == nil && len(opt.Centers) == 0 {
		probe.mu.Lock()
		e.rec.modes = append(e.rec.modes, opt.Mode)
		probe.mu.Unlock()
	}
	return e.CachedEngine.OptimizeBranches(t, opt)
}

func (e *probeEngine) Close() {
	probe.mu.Lock()
	e.rec.closed = true
	probe.mu.Unlock()
	e.CachedEngine.Close()
}

// TestEvaluationIdentityPropagates is the generated plumbing matrix:
// every way the tree builds an evaluator × every evaluation knob. In
// each cell the run sets one knob away from its default, and every
// engine the run built — serial dispatcher, Local/TCP/pod workers, the
// foreman's inline fallback, the KH test — must have been built on the
// run's engine and the run's model, number for number, with the run's
// precision and thread count, asked for the run's smooth mode, and been
// closed by the time the run returned.
func TestEvaluationIdentityPropagates(t *testing.T) {
	text := testPhylipText(t, 6, 120, 3)
	a, err := seq.ReadPhylip(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	pat, err := seq.Compress(a, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f84, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		t.Fatal(err)
	}
	hky, err := model.NewHKY85(seq.EmpiricalFreqsPatterns(pat), 3)
	if err != nil {
		t.Fatal(err)
	}

	// want is the identity a cell's run asks for; engines is how many
	// evaluators the surface builds for it. hky selects HKY85 (kappa 3)
	// over the F84 default: to a TCP worker the model travels as the
	// welcome's numbers, to a pod as the job's options.
	type want struct {
		prec    likelihood.Precision
		mode    likelihood.SmoothMode
		threads int
		hky     bool
	}
	config := func(w want) mlsearch.Config {
		mdl := f84
		if w.hky {
			mdl = hky
		}
		return mlsearch.Config{
			Taxa: a.Names, Patterns: pat, Model: mdl, Seed: 5, RearrangeExtent: 1,
			Engine: probeEngineName, Precision: w.prec, SmoothMode: w.mode, Threads: w.threads,
		}
	}
	surfaces := []struct {
		name    string
		engines int
		run     func(t *testing.T, w want)
	}{
		{"serial", 1, func(t *testing.T, w want) {
			if _, err := mlsearch.Run(config(w), mlsearch.RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"local", 2, func(t *testing.T, w want) {
			if _, err := mlsearch.Run(config(w), mlsearch.RunOptions{Transport: mlsearch.Local, Workers: 2}); err != nil {
				t.Fatal(err)
			}
		}},
		// One elastic worker plus the foreman's inline evaluator; the
		// worker learns the run from the welcome alone. -threads is the
		// worker host's own setting.
		{"tcp", 2, func(t *testing.T, w want) {
			var workers sync.WaitGroup
			var workerErr error
			_, err := mlsearch.Run(config(w), mlsearch.RunOptions{
				Transport: mlsearch.TCP, Addr: "127.0.0.1:0", Workers: 1,
				OnListen: func(addr net.Addr) {
					workers.Add(1)
					go func() {
						defer workers.Done()
						workerErr = mlsearch.ServeElastic(addr.String(),
							mlsearch.WorkerHooks{Threads: w.threads}, mlsearch.ReconnectPolicy{Disabled: true})
					}()
				},
			})
			workers.Wait()
			if err != nil || workerErr != nil {
				t.Fatalf("run: %v, worker: %v", err, workerErr)
			}
		}},
		// One job on a one-worker pod: the worker plus the pod's inline
		// evaluator. Threads is the daemon's setting, not the job's.
		{"serve", 2, func(t *testing.T, w want) {
			s, err := NewServer(Options{
				DataDir: t.TempDir(), Registry: obs.NewRegistry(), Logf: t.Logf,
				Fleet: FleetOptions{Workers: 1, Threads: w.threads},
			})
			if err != nil {
				t.Fatal(err)
			}
			opts := JobOptions{Seed: 5, Engine: probeEngineName, Precision: w.prec.String(), SmoothMode: w.mode.String()}
			if w.hky {
				opts.Model, opts.Kappa = "hky", 3
			}
			rec, err := s.Submit(JobSpec{Alignment: text, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, s, rec.ID, StateDone)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{"kh", 1, func(t *testing.T, w want) {
			n := a.Names
			var trees []*tree.Tree
			for _, nwk := range []string{
				fmt.Sprintf("((%s,%s),%s,(%s,(%s,%s)));", n[0], n[1], n[2], n[3], n[4], n[5]),
				fmt.Sprintf("((%s,%s),%s,(%s,(%s,%s)));", n[0], n[2], n[1], n[3], n[4], n[5]),
			} {
				tr, err := tree.ParseNewick(nwk, n)
				if err != nil {
					t.Fatal(err)
				}
				trees = append(trees, tr)
			}
			if _, err := mlsearch.KishinoHasegawa(config(w), trees); err != nil {
				t.Fatal(err)
			}
		}},
	}
	knobs := []struct {
		name string
		want want
	}{
		{"engine", want{threads: 1}},
		{"precision", want{prec: likelihood.Float32, threads: 1}},
		{"smooth-mode", want{mode: likelihood.SmoothGradient, threads: 1}},
		{"threads", want{threads: 2}},
		{"model", want{threads: 1, hky: true}},
	}
	for _, s := range surfaces {
		for _, k := range knobs {
			s, k := s, k
			t.Run(s.name+"/"+k.name, func(t *testing.T) {
				probe.mu.Lock()
				probe.built = nil
				probe.mu.Unlock()
				s.run(t, k.want)
				probe.mu.Lock()
				defer probe.mu.Unlock()
				if len(probe.built) != s.engines {
					t.Fatalf("%d evaluators built on the run's engine, want %d", len(probe.built), s.engines)
				}
				smooths := 0
				mdl := config(k.want).Model
				for i, rec := range probe.built {
					if rec.model.Name() != mdl.Name() || rec.model.Freqs() != mdl.Freqs() ||
						!reflect.DeepEqual(rec.model.Decomposition(), mdl.Decomposition()) {
						t.Errorf("engine %d built on %s %v, want %s %v", i, rec.model.Name(), rec.model.Freqs(), mdl.Name(), mdl.Freqs())
					}
					if rec.opt.Precision != k.want.prec {
						t.Errorf("engine %d built with precision %v, want %v", i, rec.opt.Precision, k.want.prec)
					}
					if rec.opt.Threads != k.want.threads {
						t.Errorf("engine %d built with %d threads, want %d", i, rec.opt.Threads, k.want.threads)
					}
					for _, m := range rec.modes {
						if m != k.want.mode {
							t.Errorf("engine %d ran a full smooth in mode %v, want %v", i, m, k.want.mode)
							break
						}
					}
					smooths += len(rec.modes)
					if !rec.closed {
						t.Errorf("engine %d was never closed", i)
					}
				}
				if smooths == 0 {
					t.Error("no full smooth observed: the mode check saw nothing")
				}
			})
		}
	}

	// Closing is what returns the shard pool's goroutines: ten threaded
	// serial runs must leave none behind.
	t.Run("serial/no-goroutine-leak", func(t *testing.T) {
		cfg := config(want{threads: 3})
		cfg.Engine = ""
		before := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			if _, err := mlsearch.Run(cfg, mlsearch.RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		// A stopped pool's goroutines exit on their own schedule.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines before ten Threads:3 serial runs, %d after", before, after)
		}
	})
}
