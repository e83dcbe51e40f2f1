package mlsearch

import (
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/comm"
)

// Run is the single entry point to the search runtime. One Config plus
// one RunOptions selects between the paper's serial program, the
// in-process parallel program (goroutine ranks), and the distributed TCP
// program with elastic worker membership — the same search algorithm
// and the same master, foreman and job lanes behind three transports,
// the way fastDNAml swaps comm_mpi.c for comm_pvm.c without touching
// the inference code. The serial program is the world with no workers,
// whose foreman evaluates every task itself.

// Transport selects how a Run executes its task rounds.
type Transport int

// Transports.
const (
	// Serial runs master and foreman with no worker: the foreman
	// evaluates every task inline, in task order, on one evaluator — the
	// uniprocessor baseline of the scaling study.
	Serial Transport = iota
	// Local runs master, foreman and workers as goroutines connected by
	// the in-process comm backend.
	Local
	// TCP hosts the distributed program: this process runs the router,
	// master and foreman; workers join over sockets (cmd/fdworker) and
	// may come and go at any time.
	TCP
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case Serial:
		return "serial"
	case Local:
		return "local"
	case TCP:
		return "tcp"
	}
	return fmt.Sprintf("transport(%d)", int(t))
}

// RunOptions configure Run across every transport. Zero value = one
// serial search.
type RunOptions struct {
	// Transport selects the runtime.
	Transport Transport

	// Workers: for Local, the number of worker goroutines (>= 1). For
	// TCP, the number of workers to wait for before starting the search
	// (0 starts immediately; the foreman evaluates inline until workers
	// join). Ignored for Serial.
	Workers int
	// Jumbles is the number of random orderings to run (>= 1).
	Jumbles int
	// MaxConcurrentJumbles bounds how many jumbles run concurrently as
	// jobs over the shared foreman. 0 defaults to min(Jumbles, Workers)
	// for the parallel transports (Serial always runs one at a time).
	// Per-jumble results are identical at any setting; only wall-clock
	// changes.
	MaxConcurrentJumbles int
	// Foreman tunes dispatch fault tolerance (Local and TCP).
	Foreman ForemanOptions
	// MonitorOut, when non-nil, attaches the paper's instrumentation
	// role (Local and TCP; ignored for Serial): a line per membership
	// change, removal or inline evaluation, and a closing line, printed
	// from Obs's events (from a private observer when Obs is nil).
	MonitorOut io.Writer
	// Obs, when non-nil, attaches run observability to the hosting
	// process on every transport: the foreman updates its metrics, bus,
	// spans, and /status snapshot, and RunOutcome.Monitor is that
	// snapshot at shutdown.
	Obs *RunObserver
	// WorkerHooks, keyed by rank, perturb Local workers for fault
	// injection tests. Ignored for Serial.
	WorkerHooks map[int]WorkerHooks
	// Progress receives per-round events (jumble index, event).
	Progress func(int, ProgressEvent)
	// Stop, when non-nil, cancels the run when closed: every search
	// returns ErrStopped (wrapped) at its next round boundary. The last
	// checkpoints handed to OnCheckpoint stay valid resume points, which
	// is what lets a SIGTERM'd run flush its restart file and exit 0.
	Stop <-chan struct{}
	// OnCheckpoint receives a resumable position (jumble index,
	// checkpoint) after every completed taxon addition.
	OnCheckpoint func(int, Checkpoint)
	// ResumeManifest, when non-nil, resumes a run: each jumble with a
	// manifest entry continues from its checkpoint (done jumbles return
	// their stored result immediately); jumbles without an entry start
	// fresh from their derived seed. A single-jumble run resumes from a
	// one-block manifest.
	ResumeManifest *Manifest

	// Addr is the TCP listen address (e.g. ":7946" or "127.0.0.1:0").
	Addr string
	// Bundle is unread: joining TCP workers are sent the run's Config in
	// the join handshake (see DataBundle for why the field remains).
	Bundle DataBundle
	// OnListen, when non-nil, is invoked with the bound address before
	// waiting for workers (useful with ":0" and for tests).
	OnListen func(net.Addr)
}

// RunOutcome is the result of a Run.
type RunOutcome struct {
	// Results holds one SearchResult per jumble.
	Results []*SearchResult
	// Monitor is the run observer's snapshot at shutdown (nil when the
	// run had no observer; a TCP run always has one, private if Obs is
	// nil, whose events open its join barrier).
	Monitor *RunSnapshot
}

// Run executes a complete search (all jumbles) on the selected
// transport.
func Run(cfg Config, opt RunOptions) (*RunOutcome, error) {
	switch opt.Transport {
	case Serial:
		// One evaluator, in task order: serial searches must not overlap.
		opt.Workers, opt.MaxConcurrentJumbles = 0, 1
		opt.WorkerHooks, opt.MonitorOut = nil, nil
	case Local:
		if opt.Workers < 1 {
			return nil, fmt.Errorf("mlsearch: %d workers, need >= 1", opt.Workers)
		}
	case TCP:
		return runTCPTransport(cfg, opt)
	default:
		return nil, fmt.Errorf("mlsearch: unknown transport %d", int(opt.Transport))
	}
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	world, err := StartLocal(norm, opt)
	if err != nil {
		return nil, err
	}
	return world.runOnce(norm, opt)
}

// runJumbles executes opt.Jumbles searches through foreman f, the shared
// core of every transport's master side. Seeds advance by 2 per jumble
// from cfg.Seed (keeping them odd, §2.1). Up to MaxConcurrentJumbles
// searches run as goroutines, each in its own job lane; per-jumble
// results are identical to the sequential schedule because every
// search's rounds remain a barrier within its own lane.
func runJumbles(f *Foreman, cfg Config, opt RunOptions) ([]*SearchResult, error) {
	if opt.Jumbles < 1 {
		opt.Jumbles = 1
	}
	seed := NormalizeSeed(cfg.Seed)
	configs := make([]Config, opt.Jumbles)
	resumes := make([]*Checkpoint, opt.Jumbles)
	for j := range configs {
		jcfg := cfg
		jcfg.Seed = seed + int64(2*j)
		jcfg.Jumble = j
		if opt.ResumeManifest != nil {
			if cp, ok := opt.ResumeManifest.Checkpoint(j); ok {
				// The checkpoint's order was drawn from its own seed,
				// whatever seed this invocation was given.
				jcfg.Seed = cp.Seed
				resumes[j] = &cp
			}
		}
		configs[j] = jcfg
	}

	runOne := func(j int) (*SearchResult, error) {
		disp, err := f.NewDispatcher()
		if err != nil {
			return nil, err
		}
		s, err := NewSearch(configs[j], disp)
		if err != nil {
			return nil, err
		}
		s.Stop = opt.Stop
		if opt.Progress != nil {
			s.Progress = func(e ProgressEvent) { opt.Progress(j, e) }
		}
		if opt.OnCheckpoint != nil {
			s.OnCheckpoint = func(cp Checkpoint) { opt.OnCheckpoint(j, cp) }
		}
		if cp := resumes[j]; cp != nil {
			return s.Resume(*cp)
		}
		return s.Run()
	}

	conc := opt.MaxConcurrentJumbles
	if conc < 1 {
		conc = opt.Workers
	}
	if conc < 1 {
		conc = 1
	}
	if conc > opt.Jumbles {
		conc = opt.Jumbles
	}

	out := make([]*SearchResult, opt.Jumbles)
	if conc == 1 {
		for j := range out {
			res, err := runOne(j)
			if err != nil {
				return nil, fmt.Errorf("mlsearch: jumble %d: %w", j, err)
			}
			out[j] = res
		}
		return out, nil
	}

	var wg sync.WaitGroup
	errs := make([]error, opt.Jumbles)
	sem := make(chan struct{}, conc)
	for j := range out {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[j], errs[j] = runOne(j)
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mlsearch: jumble %d: %w", j, err)
		}
	}
	return out, nil
}

// LocalWorld is the running part of a world that this process hosts:
// the foreman and the layout's local workers as goroutines over the
// endpoints comm hosts here, the monitor when asked for as a subscriber
// of the foreman's event bus, and the foreman's handle ready to run
// searches. Workers in other processes, if the transport has any, are the
// foreman's business, not the world's. The Local and TCP transports are a
// started world, one Run, Shutdown; a serve pod is a LocalWorld that has
// not been shut down yet and takes a Run per job. The Serial transport
// is the world with no workers.
type LocalWorld struct {
	// Monitor holds the observer's snapshot once Shutdown has returned
	// (nil when the world runs without an observer).
	Monitor *RunSnapshot

	foreman *Foreman
	// closeMonitor ends the monitor's line printer, nil without one.
	closeMonitor func(RunSnapshot)
	wg           sync.WaitGroup

	mu  sync.Mutex
	err error // first role failure, surfaced by Shutdown
}

// StartLocal starts an in-process world for the normalized run
// configuration. From opt it takes Workers (0 or more), MonitorOut,
// Foreman, Obs and WorkerHooks. Every worker evaluates with norm (see
// WorkerHooks for the two values a hook may replace), and so does the
// foreman when no worker is left to (see Foreman) — from the start in a
// world of none.
func StartLocal(norm Config, opt RunOptions) (*LocalWorld, error) {
	if opt.Workers < 0 {
		return nil, fmt.Errorf("mlsearch: %d workers, need >= 0", opt.Workers)
	}
	ranks, err := comm.NewLocal(firstWorkerRank + opt.Workers)
	if err != nil {
		return nil, err
	}
	var lay Layout
	for r := firstWorkerRank; r < len(ranks); r++ {
		lay.Workers = append(lay.Workers, r)
	}
	return startRoles(ranks, lay, norm, opt), nil
}

// startRoles is the one role wiring: over the endpoints this process
// hosts (indexed by rank) it starts the foreman and a worker on each of
// the layout's worker ranks, subscribes the monitor if the run has one,
// and hands back the master side.
func startRoles(ranks []comm.Communicator, lay Layout, norm Config, opt RunOptions) *LocalWorld {
	o := opt.Obs
	if o == nil && opt.MonitorOut != nil {
		o = NewRunObserver(nil, nil)
	}
	foreman := NewForeman(ranks[foremanRank], lay, norm, opt.Foreman, o)
	w := &LocalWorld{foreman: foreman}
	if opt.MonitorOut != nil {
		w.closeMonitor = attachMonitor(o.Bus(), opt.MonitorOut)
	}
	role := func(name string, run func() error) {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			if err := run(); err != nil {
				w.mu.Lock()
				if w.err == nil {
					w.err = fmt.Errorf("%s: %w", name, err)
				}
				w.mu.Unlock()
			}
		}()
	}
	role("foreman", foreman.Run)
	for _, rank := range lay.Workers {
		role(fmt.Sprintf("worker %d", rank), func() error {
			return RunWorker(ranks[rank], norm, opt.WorkerHooks[rank])
		})
	}
	return w
}

// Run executes a search's jumbles over the world, each in its own job
// lane through the shared foreman. cfg carries the search settings and
// seed (the world's workers were bound to the evaluation identity when
// it started); from opt it takes Jumbles, MaxConcurrentJumbles (default
// min(Jumbles, Workers)), ResumeManifest, Progress, OnCheckpoint and
// Stop. Run may be called concurrently.
func (w *LocalWorld) Run(cfg Config, opt RunOptions) ([]*SearchResult, error) {
	return runJumbles(w.foreman, cfg, opt)
}

// Shutdown stops the world — the foreman is told, and drains the workers
// — waits for every role goroutine, takes the observer's final snapshot,
// closes the monitor, and returns the first role failure. Call it once,
// after every Run has returned.
func (w *LocalWorld) Shutdown() error {
	err := w.foreman.Shutdown()
	w.wg.Wait()
	if v := w.foreman.obs; v != nil {
		snap := v.Snapshot()
		w.Monitor = &snap
		if w.closeMonitor != nil {
			w.closeMonitor(snap)
		}
	}
	if w.err != nil {
		return w.err
	}
	return err
}

// runOnce is a transport's use of a world: one Run, then Shutdown.
func (w *LocalWorld) runOnce(norm Config, opt RunOptions) (*RunOutcome, error) {
	results, err := w.Run(norm, opt)
	if serr := w.Shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return &RunOutcome{Results: results, Monitor: w.Monitor}, nil
}
