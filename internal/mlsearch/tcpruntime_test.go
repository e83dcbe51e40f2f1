package mlsearch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// runTCPWithWorkers runs cfg on the TCP transport with that many
// ServeElastic workers joining as soon as the master listens, and
// requires the master and every worker to finish cleanly.
func runTCPWithWorkers(t *testing.T, cfg Config, opt RunOptions, workers int) *RunOutcome {
	t.Helper()
	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	opt.Transport, opt.Addr, opt.Workers = TCP, "127.0.0.1:0", workers
	opt.OnListen = func(a net.Addr) {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				workerErrs[w] = ServeElastic(a.String(), WorkerHooks{}, ReconnectPolicy{Disabled: true})
			}(w)
		}
	}
	out, err := Run(cfg, opt)
	wg.Wait()
	if err != nil {
		t.Fatalf("tcp run: %v", err)
	}
	for w, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", w, werr)
		}
	}
	return out
}

// TestTCPRuntimeEndToEnd runs the full distributed program on loopback:
// master+router and foreman with the monitor subscribed, and two
// anonymous worker "processes" that join via the elastic handshake, then
// compares against the serial answer. The router's own counters pin the topology and the dispatch
// unit: the roles this process hosts use no socket, so the workers'
// connections are the only ones, and what crosses them is slices — on a
// search whose rounds run to dozens of candidates, fewer frames than
// tasks, though never fewer than a slice out and a reply back per round.
func TestTCPRuntimeEndToEnd(t *testing.T) {
	cfg := testConfig(t, 14, 150, 31)
	cfg.Seed, cfg.RearrangeExtent = 7, 2
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 2
	reg := obs.NewRegistry()
	outcome := runTCPWithWorkers(t, cfg, RunOptions{MonitorOut: io.Discard, Obs: NewRunObserver(reg, nil)}, workers)
	res := outcome.Results[0]
	if res.BestNewick != serial.BestNewick || res.LnL != serial.LnL {
		t.Errorf("TCP run diverged from serial: %g vs %g", res.LnL, serial.LnL)
	}
	snap := outcome.Monitor
	if snap == nil || snap.Completed != res.TotalTasks {
		t.Fatalf("run snapshot inconsistent: %+v", snap)
	}
	served := 0
	for _, w := range snap.Workers {
		if w.Tasks > 0 {
			served++
		}
	}
	if served != workers {
		t.Errorf("work spread over %d workers, want %d", served, workers)
	}
	if snap.Joins != workers {
		t.Errorf("observer saw %d joins, want %d", snap.Joins, workers)
	}
	if n := reg.Counter("fdml_net_connects_total", "").Value(); n != workers {
		t.Errorf("router registered %v connections, want the %d workers' only", n, workers)
	}
	msgs := reg.CounterVec("fdml_net_messages_total", "", "dir")
	frames := int(msgs.With("in").Value() + msgs.With("out").Value())
	if rounds := len(res.Rounds); frames >= res.TotalTasks || frames < 2*rounds {
		t.Errorf("router moved %d frames for %d tasks in %d rounds, want at least 2 per round and fewer than one per task",
			frames, res.TotalTasks, rounds)
	}
}

// TestTCPRunNoWorkersInline proves the bottom rung of the degradation
// ladder: with a zero join barrier and no workers at all, the foreman
// evaluates every task inline and the run still matches serial.
func TestTCPRunNoWorkersInline(t *testing.T) {
	cfg := testConfig(t, 6, 120, 13)
	cfg.Seed = 9
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No workers will ever join.
	outcome := runTCPWithWorkers(t, cfg, RunOptions{MonitorOut: io.Discard}, 0)
	res := outcome.Results[0]
	if res.BestNewick != serial.BestNewick || res.LnL != serial.LnL {
		t.Errorf("inline run diverged from serial: %g vs %g", res.LnL, serial.LnL)
	}
	if outcome.Monitor.Inline != res.TotalTasks {
		t.Errorf("observer counted %d inline evaluations, want %d", outcome.Monitor.Inline, res.TotalTasks)
	}
}

// TestTCPRunMatchesSerialForAnyConfig: a distributed run scores what its
// master scores, whatever the Config holds. The welcome carries the
// run's patterns, weights, rates and the model's own numbers, so every
// model × weighting — the first row is the plain F84 default — must
// return the serial answer, bit for bit, from two joined workers. The
// site-rate rows are the ones a
// worker that re-derived its model from the alignment alone would score
// differently (rates change neither frequencies nor decomposition). The
// float32 rows, named as when float32 CLV storage existed, now require
// the run to be refused before its listener opens.
func TestTCPRunMatchesSerialForAnyConfig(t *testing.T) {
	models := []struct {
		name  string
		build func(seq.BaseFreqs) (model.Model, error)
	}{
		{"F84", func(f seq.BaseFreqs) (model.Model, error) { return model.NewF84(f, model.DefaultTTRatio) }},
		{"F84-3.5", func(f seq.BaseFreqs) (model.Model, error) { return model.NewF84(f, 3.5) }},
		{"JC69", func(seq.BaseFreqs) (model.Model, error) { return model.NewJC69(), nil }},
		{"K80", func(seq.BaseFreqs) (model.Model, error) { return model.NewK80(3) }},
		{"HKY85", func(f seq.BaseFreqs) (model.Model, error) { return model.NewHKY85(f, 3) }},
		{"GTR", func(f seq.BaseFreqs) (model.Model, error) {
			return model.NewGTR(f, model.GTRRates{AC: 1, AG: 2.5, AT: 0.5, CG: 0.75, CT: 3, GT: 1})
		}},
	}
	const sites = 150
	weights, rates := make([]float64, sites), make([]float64, sites)
	for i := range weights {
		weights[i] = float64(i % 3) // zero-weight columns are dropped
		rates[i] = 0.25 + float64(i%4)
	}
	data := []struct {
		name string
		opt  seq.CompressOptions
	}{
		{"uniform", seq.CompressOptions{}},
		{"weights", seq.CompressOptions{Weights: weights}},
		{"rates", seq.CompressOptions{Rates: rates}},
		{"weights+rates", seq.CompressOptions{Weights: weights, Rates: rates}},
	}
	row := 0
	for _, mc := range models {
		for _, dc := range data {
			for _, prec := range []likelihood.Precision{likelihood.Float64, likelihood.Float32} {
				mc, dc, prec, taxa := mc, dc, prec, 8+row%5
				row++
				t.Run(fmt.Sprintf("%s/%s/%v/%dtaxa", mc.name, dc.name, prec, taxa), func(t *testing.T) {
					ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: 33, MeanBranchLen: 0.12})
					if err != nil {
						t.Fatal(err)
					}
					pat, err := seq.Compress(ds.Alignment, dc.opt)
					if err != nil {
						t.Fatal(err)
					}
					mdl, err := mc.build(seq.EmpiricalFreqsPatterns(pat))
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: mdl, Seed: 7, RearrangeExtent: 1, Precision: prec}
					if prec != likelihood.Float64 {
						_, err := Run(cfg, RunOptions{Transport: TCP, Addr: "127.0.0.1:0", Workers: 2,
							OnListen: func(net.Addr) { t.Error("a refused run opened its listener") }})
						if want := likelihood.CheckPrecision(prec).Error(); err == nil || !strings.HasSuffix(err.Error(), want) {
							t.Fatalf("float32 tcp run: %v, want the refusal %q", err, want)
						}
						return
					}
					serial, err := runSerial(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res := runTCPWithWorkers(t, cfg, RunOptions{}, 2).Results[0]
					if res.BestNewick != serial.BestNewick || res.LnL != serial.LnL {
						t.Errorf("tcp lnL %.4f tree %s\nserial lnL %.4f tree %s", res.LnL, res.BestNewick, serial.LnL, serial.BestNewick)
					}
				})
			}
		}
	}
}

// welcomeConfig is a small run whose every welcome field is away from
// its zero value: weights and rates, a four-term model, the reference
// engine.
func welcomeConfig(t *testing.T) Config {
	t.Helper()
	a, err := seq.ReadPhylip(strings.NewReader("4 8\na ACGTACGT\nb ACGAACGA\nc CCGTNCGT\nd CCTTACRT\n"))
	if err != nil {
		t.Fatal(err)
	}
	pat, err := seq.Compress(a, seq.CompressOptions{
		Weights: []float64{1, 2, 1, 0, 1, 3, 1, 1},
		Rates:   []float64{1, 0.5, 2, 1, 1, 0.5, 2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := model.NewHKY85(seq.EmpiricalFreqsPatterns(pat), 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Config{
		Taxa: a.Names, Patterns: pat, Model: mdl,
		Engine: "reference",
	}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestWelcomeCodec: the welcome round-trips everything of the Config an evaluator is built from, number for number, and leaves
// behind what belongs to the master (the search settings) or to the host
// (Threads).
func TestWelcomeCodec(t *testing.T) {
	cfg := welcomeConfig(t)
	cfg.Seed, cfg.RearrangeExtent, cfg.Threads = 9, 3, 4
	got, err := unmarshalWelcome(marshalWelcome(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Taxa, cfg.Taxa) {
		t.Errorf("taxa %v, want %v", got.Taxa, cfg.Taxa)
	}
	if !reflect.DeepEqual(got.Patterns.Codes, cfg.Patterns.Codes) ||
		!reflect.DeepEqual(got.Patterns.Weights, cfg.Patterns.Weights) ||
		!reflect.DeepEqual(got.Patterns.Rates, cfg.Patterns.Rates) {
		t.Errorf("patterns changed: %+v, want %+v", got.Patterns, cfg.Patterns)
	}
	if got.Model.Name() != "HKY85" || got.Model.Freqs() != cfg.Model.Freqs() ||
		!reflect.DeepEqual(got.Model.Decomposition(), cfg.Model.Decomposition()) {
		t.Errorf("model changed: %s %v", got.Model.Name(), got.Model.Freqs())
	}
	if got.Engine != "reference" {
		t.Errorf("engine lost: %q", got.Engine)
	}
	if got.Seed != 0 || got.RearrangeExtent != 0 || got.Threads != 0 {
		t.Errorf("master's or host's settings travelled: seed %d extent %d threads %d", got.Seed, got.RearrangeExtent, got.Threads)
	}
	if _, err := unmarshalWelcome([]byte{0x00}); err == nil {
		t.Error("bad kind byte accepted")
	}
}

// TestWelcomeConfig: the decoded Config is what a worker hands
// NewConfigEvaluator, and that evaluator scores a tree exactly as one
// built from the master's own Config does.
func TestWelcomeConfig(t *testing.T) {
	cfg := welcomeConfig(t)
	remote, err := unmarshalWelcome(marshalWelcome(cfg))
	if err != nil {
		t.Fatal(err)
	}
	task := Task{ID: 1, BaseNewick: "((a:0.1,b:0.1):0.1,c:0.1,d:0.1);", Passes: 4, InsertEdge: -1, MoveS: -1}
	var lnL [2]float64
	for i, c := range []Config{cfg, remote} {
		ev, err := NewConfigEvaluator(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev.Evaluate(task)
		ev.Close()
		if err != nil {
			t.Fatal(err)
		}
		lnL[i] = res.LnL
	}
	if lnL[0] != lnL[1] || lnL[0] >= 0 {
		t.Errorf("worker's evaluator scores %v, master's %v", lnL[1], lnL[0])
	}
}

// spoiledModel is a model.Model whose numbers a test has tampered with.
type spoiledModel struct {
	freqs  seq.BaseFreqs
	decomp model.Decomposition
}

func (m *spoiledModel) Name() string                        { return "spoiled" }
func (m *spoiledModel) Freqs() seq.BaseFreqs                { return m.freqs }
func (m *spoiledModel) Decomposition() *model.Decomposition { return &m.decomp }

// TestWelcomeRefusesWhatItCannotEvaluate: the welcome is outside input.
// Whatever a worker could not evaluate exactly as its master does is an
// error at the handshake, never a default — a taxon count below three, a
// ragged or out-of-alphabet code matrix, a weight or rate that is not
// finite and positive, numbers no reversible model has, a count the
// payload cannot back, trailing bytes.
func TestWelcomeRefusesWhatItCannotEvaluate(t *testing.T) {
	for name, spoil := range map[string]func(c *Config){
		"two taxa": func(c *Config) { c.Taxa, c.Patterns.Codes = c.Taxa[:2], c.Patterns.Codes[:2] },
		"no patterns": func(c *Config) {
			c.Patterns = &seq.Patterns{Codes: make([][]seq.Code, len(c.Taxa))}
		},
		"short code row":    func(c *Config) { c.Patterns.Codes[1] = c.Patterns.Codes[1][:3] },
		"code 0":            func(c *Config) { c.Patterns.Codes[2][1] = 0 },
		"code 16":           func(c *Config) { c.Patterns.Codes[0][0] = 16 },
		"zero weight":       func(c *Config) { c.Patterns.Weights[0] = 0 },
		"negative weight":   func(c *Config) { c.Patterns.Weights[1] = -1 },
		"NaN weight":        func(c *Config) { c.Patterns.Weights[2] = math.NaN() },
		"infinite rate":     func(c *Config) { c.Patterns.Rates[0] = math.Inf(1) },
		"zero rate":         func(c *Config) { c.Patterns.Rates[1] = 0 },
		"NaN rate":          func(c *Config) { c.Patterns.Rates[2] = math.NaN() },
		"K = 0":             func(c *Config) { c.Model = &spoiledModel{freqs: c.Model.Freqs()} },
		"lambda[0] = 1":     func(c *Config) { c.Model.Decomposition().Lambda[0] = 1 },
		"positive lambda":   func(c *Config) { c.Model.Decomposition().Lambda[1] = 0.5 },
		"P(0) not identity": func(c *Config) { c.Model.Decomposition().Coef[1][0][0] += 0.5 },
		"NaN frequency": func(c *Config) {
			f := c.Model.Freqs()
			f[2] = math.NaN()
			c.Model = &spoiledModel{freqs: f, decomp: *c.Model.Decomposition()}
		},
		"frequencies not a distribution": func(c *Config) {
			c.Model = &spoiledModel{freqs: seq.BaseFreqs{0.5, 0.5, 0.5, 0.5}, decomp: *c.Model.Decomposition()}
		},
		"detailed balance": func(c *Config) {
			c.Model = &spoiledModel{freqs: seq.Uniform(), decomp: *c.Model.Decomposition()}
		},
	} {
		cfg := welcomeConfig(t)
		spoil(&cfg)
		if got, err := unmarshalWelcome(marshalWelcome(cfg)); err == nil {
			t.Errorf("%s: decoded as %d taxa, %s", name, len(got.Taxa), got.Model.Name())
		}
	}

	plain := marshalWelcome(welcomeConfig(t))
	if _, err := unmarshalWelcome(plain); err != nil {
		t.Fatalf("unspoiled welcome refused: %v", err)
	}
	if _, err := unmarshalWelcome(append(append([]byte(nil), plain...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Counts the payload cannot back: the taxon count sits after the kind
	// byte, the pattern count after the names.
	taxonCount := 1
	patternCount := taxonCount + 4
	for _, name := range welcomeConfig(t).Taxa {
		patternCount += 4 + len(name)
	}
	for _, off := range []int{taxonCount, patternCount} {
		for _, count := range []uint32{1 << 31, 1 << 20} { // negative, and more elements than bytes
			b := append([]byte(nil), plain...)
			binary.BigEndian.PutUint32(b[off:], count)
			if _, err := unmarshalWelcome(b); err == nil {
				t.Errorf("count %#x at offset %d accepted", count, off)
			}
		}
	}
	for cut := 1; cut < len(plain); cut += 7 {
		if _, err := unmarshalWelcome(plain[:cut]); err == nil {
			t.Errorf("welcome truncated to %d of %d bytes accepted", cut, len(plain))
		}
	}
}

func TestParseReconnectPolicy(t *testing.T) {
	p, err := ParseReconnectPolicy("on")
	if err != nil || p.Disabled {
		t.Errorf("on: %+v %v", p, err)
	}
	p, err = ParseReconnectPolicy("off")
	if err != nil || !p.Disabled {
		t.Errorf("off: %+v %v", p, err)
	}
	p, err = ParseReconnectPolicy("base=500ms,cap=30s,max=10")
	if err != nil || p.Base != 500*time.Millisecond || p.Cap != 30*time.Second || p.MaxAttempts != 10 {
		t.Errorf("settings: %+v %v", p, err)
	}
	if _, err := ParseReconnectPolicy("nope=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := ParseReconnectPolicy("base"); err == nil {
		t.Error("missing value accepted")
	}
}

func TestReconnectBackoffBounds(t *testing.T) {
	p := ReconnectPolicy{}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 12; n++ {
		d := p.backoff(n, rng)
		if d <= 0 || d > p.Cap {
			t.Fatalf("backoff(%d) = %v outside (0, %v]", n, d, p.Cap)
		}
	}
}

// TestTCPTeardownIsClean loops the set-up and tear-down of a TCP run —
// finished searches and searches stopped after their first round — and
// requires every ServeElastic worker to return nil: the foreman must
// know every worker the join barrier counted (the router tells it of a
// join before it tells the barrier) and its shutdown message must reach
// each of them before Run closes the router, or a worker sees
// comm.ErrClosed and (with reconnection on) would dial a master that is
// gone.
func TestTCPTeardownIsClean(t *testing.T) {
	cfg := testConfig(t, 5, 60, 17)
	const workers = 2
	for i := 0; i < 150; i++ {
		stopEarly := i%2 == 1
		stop := make(chan struct{})
		cfg.Seed = int64(i)
		var once sync.Once
		progress := func(int, ProgressEvent) {
			if stopEarly {
				once.Do(func() { close(stop) })
			}
		}
		var wg sync.WaitGroup
		workerErrs := make([]error, workers)
		opt := RunOptions{
			Transport: TCP, Addr: "127.0.0.1:0", Workers: workers, Stop: stop, Progress: progress,
			Foreman: ForemanOptions{Pipeline: 2, TaskTimeout: 60 * time.Second},
			OnListen: func(a net.Addr) {
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						workerErrs[w] = ServeElastic(a.String(), WorkerHooks{}, ReconnectPolicy{Disabled: true})
					}(w)
				}
			},
		}
		_, err := Run(cfg, opt)
		wg.Wait()
		if err != nil && !(stopEarly && errors.Is(err, ErrStopped)) {
			t.Fatalf("run %d: %v", i, err)
		}
		for w, werr := range workerErrs {
			if werr != nil {
				t.Fatalf("run %d (stopped early: %v): worker %d returned %v, want a clean shutdown", i, stopEarly, w, werr)
			}
		}
	}
}
