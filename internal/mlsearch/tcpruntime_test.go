package mlsearch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
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

// TestTCPRuntimeEndToEnd runs the full distributed program on loopback:
// master+router and foreman with the monitor subscribed, and two
// anonymous worker "processes" that join via the elastic handshake, then
// compares against the serial answer. The router's own counters pin the topology and the dispatch
// unit: the roles this process hosts use no socket, so the workers'
// connections are the only ones, and what crosses them is slices — on a
// search whose rounds run to dozens of candidates, fewer frames than
// tasks, though never fewer than a slice out and a reply back per round.
func TestTCPRuntimeEndToEnd(t *testing.T) {
	ds, err := simulate.New(simulate.Options{Taxa: 14, Sites: 150, Seed: 31, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := seq.WritePhylip(&phy, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	bundle := DataBundle{PhylipText: phy.Bytes(), TTRatio: 2.0}

	// The workers must build the exact dataset the master searches on.
	cfg, err := bundle.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed, cfg.RearrangeExtent = 7, 2
	serial, err := Run(cfg, RunOptions{Transport: Serial})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 2
	reg := obs.NewRegistry()
	opt := RunOptions{
		Transport:   TCP,
		Addr:        "127.0.0.1:0",
		Workers:     workers,
		WithMonitor: true,
		Bundle:      bundle,
		Obs:         NewRunObserver(reg, nil),
	}

	addrCh := make(chan net.Addr, 1)
	opt.OnListen = func(a net.Addr) { addrCh <- a }

	var wg sync.WaitGroup
	var outcome *RunOutcome
	var masterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		outcome, masterErr = Run(cfg, opt)
	}()

	addr := (<-addrCh).String()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := ServeElastic(addr, WorkerHooks{}, ReconnectPolicy{Disabled: true}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if masterErr != nil {
		t.Fatal(masterErr)
	}
	res := outcome.Results[0]
	if res.BestNewick != serial.Results[0].BestNewick || res.LnL != serial.Results[0].LnL {
		t.Errorf("TCP run diverged from serial: %g vs %g", res.LnL, serial.Results[0].LnL)
	}
	if outcome.Monitor == nil || outcome.Monitor.Results != res.TotalTasks {
		t.Errorf("monitor stats inconsistent: %+v", outcome.Monitor)
	}
	if len(outcome.Monitor.TasksPerWorker) != workers {
		t.Errorf("work spread over %d workers, want %d", len(outcome.Monitor.TasksPerWorker), workers)
	}
	if outcome.Monitor.Joins != workers {
		t.Errorf("monitor saw %d joins, want %d", outcome.Monitor.Joins, workers)
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
	ds, err := simulate.New(simulate.Options{Taxa: 6, Sites: 120, Seed: 13, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := seq.WritePhylip(&phy, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	bundle := DataBundle{PhylipText: phy.Bytes(), TTRatio: 2.0}
	cfg, err := bundle.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed, cfg.RearrangeExtent = 9, 1
	serial, err := Run(cfg, RunOptions{Transport: Serial})
	if err != nil {
		t.Fatal(err)
	}

	outcome, err := Run(cfg, RunOptions{
		Transport:   TCP,
		Addr:        "127.0.0.1:0",
		Workers:     0, // start immediately, no workers will ever join
		WithMonitor: true,
		Bundle:      bundle,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := outcome.Results[0]
	if res.BestNewick != serial.Results[0].BestNewick || res.LnL != serial.Results[0].LnL {
		t.Errorf("inline run diverged from serial: %g vs %g", res.LnL, serial.Results[0].LnL)
	}
	if outcome.Monitor.Inline != res.TotalTasks {
		t.Errorf("monitor counted %d inline evaluations, want %d", outcome.Monitor.Inline, res.TotalTasks)
	}
}

// TestTCPModelMismatchRefused: the data bundle can only describe F84
// over the data's empirical frequencies, so a run whose model the
// workers would not rebuild must fail before it starts rather than
// score on a different model than the master asked for. The default
// model, built independently of the bundle, is accepted and matches
// serial bit for bit.
func TestTCPModelMismatchRefused(t *testing.T) {
	ds, err := simulate.New(simulate.Options{Taxa: 8, Sites: 150, Seed: 33, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := NewDefaultModel(pat)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: mdl, Seed: 7, RearrangeExtent: 1}
	var phy bytes.Buffer
	if err := seq.WritePhylip(&phy, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	opt := RunOptions{
		Transport: TCP, Addr: "127.0.0.1:0", // no workers: the foreman evaluates inline
		Bundle: DataBundle{PhylipText: phy.Bytes(), TTRatio: model.DefaultTTRatio},
	}

	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(cfg, opt)
	if err != nil {
		t.Fatalf("default F84 refused: %v", err)
	}
	if res := out.Results[0]; res.BestNewick != serial.BestNewick || res.LnL != serial.LnL {
		t.Errorf("tcp lnL %.10f tree %s, serial lnL %.10f tree %s", res.LnL, res.BestNewick, serial.LnL, serial.BestNewick)
	}

	jc := cfg
	jc.Model = model.NewJC69()
	if _, err := Run(jc, opt); err == nil || !strings.Contains(err.Error(), "JC69") || !strings.Contains(err.Error(), "F84") {
		t.Errorf("JC69 over an F84-only bundle: error %v, want one naming both models", err)
	}
	// Same family, different ratio than the bundle carries.
	tt := cfg
	if tt.Model, err = model.NewF84(cfg.Model.Freqs(), 3.5); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(tt, opt); err == nil {
		t.Error("F84 with a ratio the bundle does not carry was accepted")
	}
}

func TestDataBundleCodec(t *testing.T) {
	in := DataBundle{
		PhylipText: []byte("2 4\na AAAA\nb CCCC\n"),
		TTRatio:    2.5,
		SiteRates:  []float64{1, 2, 0.5, 0.5},
		Weights:    []float64{1, 1, 0, 2},
		Precision:  likelihood.Float32,
		Engine:     "reference",
		SmoothMode: likelihood.SmoothGradient,
	}
	out, err := UnmarshalDataBundle(MarshalDataBundle(in))
	if err != nil {
		t.Fatal(err)
	}
	if string(out.PhylipText) != string(in.PhylipText) || out.TTRatio != in.TTRatio {
		t.Errorf("bundle mismatch: %+v", out)
	}
	if len(out.SiteRates) != 4 || len(out.Weights) != 4 {
		t.Errorf("slices lost: %+v", out)
	}
	if out.Precision != likelihood.Float32 {
		t.Errorf("precision lost: %v", out.Precision)
	}
	if out.Engine != "reference" {
		t.Errorf("engine lost: %q", out.Engine)
	}
	if out.SmoothMode != likelihood.SmoothGradient {
		t.Errorf("smooth mode lost: %v", out.SmoothMode)
	}
	if _, err := UnmarshalDataBundle([]byte{0x00}); err == nil {
		t.Error("bad kind byte accepted")
	}
	// Engine and smooth mode ride in extension fields: a bundle without
	// them (an older master) must decode cleanly with the defaults — the
	// worker then falls back to the default backend and the sweep.
	in.Engine = ""
	in.SmoothMode = likelihood.SmoothSweep
	out, err = UnmarshalDataBundle(MarshalDataBundle(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Engine != "" {
		t.Errorf("engine invented: %q", out.Engine)
	}
	if out.SmoothMode != likelihood.SmoothSweep {
		t.Errorf("smooth mode invented: %v", out.SmoothMode)
	}
}

// TestDataBundleRefusesUnknownIdentity: a precision or smooth mode this
// build does not have is an error at the handshake, not a worker that
// quietly evaluates with something else. At the parent 257 wrapped round
// to float32, 2 ran as float64 and an unknown mode as the sweep.
func TestDataBundleRefusesUnknownIdentity(t *testing.T) {
	plain := MarshalDataBundle(DataBundle{PhylipText: []byte("2 4\na AAAA\nb CCCC\n"), TTRatio: 2})
	// With no extension written, the precision is the last field.
	for _, prec := range []uint32{2, 255, 257, 1 << 31} {
		b := append([]byte(nil), plain...)
		binary.BigEndian.PutUint32(b[len(b)-4:], prec)
		if out, err := UnmarshalDataBundle(b); err == nil {
			t.Errorf("precision %d decoded as %v", prec, out.Precision)
		}
	}
	if out, err := UnmarshalDataBundle(appendExt(plain, extBundleSmoothMode, []byte("zigzag"))); err == nil {
		t.Errorf("smooth mode \"zigzag\" decoded as %v", out.SmoothMode)
	}
	// What is still tolerated: an extension tag from a newer master.
	if _, err := UnmarshalDataBundle(appendExt(plain, 0x7F, []byte{1})); err != nil {
		t.Errorf("unknown extension tag refused: %v", err)
	}
	for _, count := range []uint32{1 << 31, 1 << 20} { // negative, and more rates than bytes
		b := append([]byte(nil), plain...)
		binary.BigEndian.PutUint32(b[len(b)-12:], count)
		if _, err := UnmarshalDataBundle(b); err == nil {
			t.Errorf("rate count %#x accepted", count)
		}
	}
}

func TestDataBundleConfig(t *testing.T) {
	b := DataBundle{PhylipText: []byte("3 4\na ACGT\nb ACGA\nc CCGT\n")}
	cfg, err := b.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model.Name() != "F84" || cfg.Patterns.NumSeqs() != 3 || len(cfg.Taxa) != 3 {
		t.Errorf("config: %s %d %v", cfg.Model.Name(), cfg.Patterns.NumSeqs(), cfg.Taxa)
	}
	if _, err := (DataBundle{PhylipText: []byte("garbage")}).Config(); err == nil {
		t.Error("garbage alignment accepted")
	}
}

func TestWelcomeCodec(t *testing.T) {
	lay := ElasticLayout()
	bundle := DataBundle{PhylipText: []byte("2 4\na AAAA\nb CCCC\n"), TTRatio: 2.0}
	gotLay, gotBundle, err := unmarshalWelcome(marshalWelcome(lay, bundle))
	if err != nil {
		t.Fatal(err)
	}
	if gotLay.Master != lay.Master || gotLay.Foreman != lay.Foreman || !gotLay.Elastic {
		t.Errorf("layout round trip: %+v", gotLay)
	}
	if string(gotBundle.PhylipText) != string(bundle.PhylipText) {
		t.Errorf("bundle round trip: %+v", gotBundle)
	}
	if _, _, err := unmarshalWelcome([]byte{0x00}); err == nil {
		t.Error("bad welcome accepted")
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
	ds, err := simulate.New(simulate.Options{Taxa: 5, Sites: 60, Seed: 17, MeanBranchLen: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var phy bytes.Buffer
	if err := seq.WritePhylip(&phy, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	bundle := DataBundle{PhylipText: phy.Bytes(), TTRatio: 2.0}
	cfg, err := bundle.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.RearrangeExtent = 1
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
			Transport: TCP, Addr: "127.0.0.1:0", Workers: workers, Bundle: bundle, Stop: stop, Progress: progress,
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
