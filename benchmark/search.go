package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/likelihood"
	"repro/internal/likelihood/difftest"
	"repro/internal/mlsearch"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/tree"
)

// input is a workload's generated input: PHYLIP text in memory, as a
// user's file would hold it. The program under test receives only this.
type input struct {
	phylip []byte
}

// newInput simulates the workload's alignment: w.Sites columns holding
// exactly w.Patterns distinct ones. Likelihood cost is proportional to the
// number of distinct columns, and in a simulated alignment of a given
// length that number follows the random tree's depth (250 to 440 in 500
// sites of 20 taxa), so it is fixed here and only the tree, the sequences
// and the taxon order vary from one problem to the next.
//
// Rates are homogeneous across sites: with GammaAlpha > 0 simulate.New
// draws sites in map iteration order, so the same seed gives different
// alignments in different processes, and a benchmark input must repeat.
func newInput(w workload, seed int64) (*input, error) {
	for draw := 4 * w.Sites; draw <= 256*w.Sites; draw *= 4 {
		ds, err := simulate.New(simulate.Options{Taxa: w.Taxa, Sites: draw, Seed: seed, MeanBranchLen: w.BranchLen})
		if err != nil {
			return nil, err
		}
		if !selectColumns(ds.Alignment, w.Sites, w.Patterns) {
			continue // a shallow tree: too few distinct columns, draw more
		}
		var buf bytes.Buffer
		if err := seq.WritePhylip(&buf, ds.Alignment, 0); err != nil {
			return nil, err
		}
		return &input{phylip: buf.Bytes()}, nil
	}
	return nil, fmt.Errorf("seed %d: no %d distinct columns among %d simulated sites of %d taxa", seed, w.Patterns, 256*w.Sites, w.Taxa)
}

// selectColumns cuts al down, in place and in order, to sites columns
// with exactly patterns distinct ones among them: a column not seen
// before is kept while distinct ones are still wanted, a repeat is kept
// while there is room beyond the distinct ones still to come. It reports
// whether al had enough of both.
func selectColumns(al *seq.Alignment, sites, patterns int) bool {
	seen := map[string]bool{}
	col := make([]byte, al.NumSeqs())
	kept := 0
	for c := 0; c < al.NumSites() && kept < sites; c++ {
		for i, row := range al.Data {
			col[i] = byte(row[c])
		}
		wanted := patterns - len(seen)
		switch {
		case !seen[string(col)] && wanted > 0:
			seen[string(col)] = true
		case seen[string(col)] && sites-kept > wanted:
		default:
			continue
		}
		for _, row := range al.Data {
			row[kept] = row[c]
		}
		kept++
	}
	for i := range al.Data {
		al.Data[i] = al.Data[i][:kept]
	}
	return kept == sites && len(seen) == patterns
}

// dataset is the parsed form every search needs, with the time each
// seq-layer step took.
type dataset struct {
	taxa     []string
	pat      *seq.Patterns
	mdl      model.Model
	parse    time.Duration
	compress time.Duration
	// load is the whole of PHYLIP text → dataset, model included.
	load time.Duration
}

func (in *input) load() (*dataset, error) {
	t0 := time.Now()
	al, err := seq.ReadPhylip(bytes.NewReader(in.phylip))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	pat, err := seq.Compress(al, seq.CompressOptions{})
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	mdl, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		return nil, err
	}
	return &dataset{taxa: al.Names, pat: pat, mdl: mdl, parse: t1.Sub(t0), compress: t2.Sub(t1), load: time.Since(t0)}, nil
}

// config is the search a user gets with no flags: F84, extent 1,
// float64, sweep smoothing.
func (ds *dataset) config(w workload, seed int64) mlsearch.Config {
	return mlsearch.Config{
		Taxa: ds.taxa, Patterns: ds.pat, Model: ds.mdl,
		Seed: seed, RearrangeExtent: 1, Threads: w.Threads,
	}
}

// capturedTask is one task/result pair seen at a Local or TCP worker,
// kept for the codec and comm probes to replay.
type capturedTask struct {
	task   mlsearch.Task
	result mlsearch.Result
}

// searchTrace holds everything one traced search records.
type searchTrace struct {
	t      *tracer
	master *spanBuf

	// Foreman-side sums, filled from obs bus events on the foreman's
	// goroutine (Local and TCP only).
	reg          *obs.Registry
	queueWait    time.Duration
	rttMinusEval time.Duration
	evalSum      time.Duration
	roundSum     time.Duration
	dispatched   int
	timeouts     int
	inline       int
	roundStart   map[uint64]time.Time

	// captures holds one list per worker, appended to by that worker's
	// hook alone.
	captures []*[]capturedTask
}

func newSearchTrace() *searchTrace {
	t := newTracer()
	return &searchTrace{t: t, master: t.buf(0), roundStart: map[uint64]time.Time{}}
}

// workerHook returns the BeforeReply hook for one Local/TCP worker: it
// records the task span from the evaluator's own Eval time and keeps the
// pair for replay. The hook runs on the worker's goroutine; workerHook
// itself is called for each worker in turn by the goroutine starting them.
func (st *searchTrace) workerHook(rank int) func(mlsearch.Task, mlsearch.Result) bool {
	buf := st.t.buf(rank)
	caps := new([]capturedTask)
	st.captures = append(st.captures, caps)
	return func(t mlsearch.Task, r mlsearch.Result) bool {
		end := time.Now()
		buf.add(layerTask, "evaluate", end.Add(-r.Eval), end, t.Round)
		*caps = append(*caps, capturedTask{t, r})
		return true
	}
}

func (st *searchTrace) captured() []capturedTask {
	var out []capturedTask
	for _, c := range st.captures {
		out = append(out, *c...)
	}
	return out
}

// observer wires the foreman's typed events into the trace: round spans
// from RoundStarted/RoundCompleted, queue wait and RTT−Eval from the task
// events. All handlers fire on the foreman's goroutine.
func (st *searchTrace) observer() *mlsearch.RunObserver {
	st.reg = obs.NewRegistry()
	bus := obs.NewBus()
	fbuf := st.t.buf(1)
	obs.SubscribeTo(bus, func(e mlsearch.RoundStarted) { st.roundStart[e.Round] = e.At })
	obs.SubscribeTo(bus, func(e mlsearch.RoundCompleted) {
		if start, ok := st.roundStart[e.Round]; ok {
			fbuf.add(layerRound, "round", start, e.At, e.Round)
			st.roundSum += e.At.Sub(start)
			delete(st.roundStart, e.Round)
		}
	})
	obs.SubscribeTo(bus, func(e mlsearch.TaskDispatched) {
		st.dispatched++
		st.queueWait += e.QueueWait
	})
	obs.SubscribeTo(bus, func(e mlsearch.TaskCompleted) {
		st.evalSum += e.Eval
		if d := e.RTT - e.Eval; d > 0 {
			st.rttMinusEval += d
		}
	})
	obs.SubscribeTo(bus, func(mlsearch.WorkerTimedOut) { st.timeouts++ })
	obs.SubscribeTo(bus, func(mlsearch.InlineEvaluated) { st.inline++ })
	return mlsearch.NewRunObserver(st.reg, bus)
}

// tracedDispatcher is the serial workloads' seam: the same loop as
// mlsearch.SerialDispatcher with a span around the round and around each
// Evaluate.
type tracedDispatcher struct {
	ev  *mlsearch.Evaluator
	buf *spanBuf
}

func (d *tracedDispatcher) Dispatch(tasks []mlsearch.Task) ([]mlsearch.Result, error) {
	start := time.Now()
	out := make([]mlsearch.Result, 0, len(tasks))
	for _, t := range tasks {
		t0 := time.Now()
		r, err := d.ev.Evaluate(t)
		if err != nil {
			return nil, err
		}
		d.buf.add(layerTask, "evaluate", t0, time.Now(), t.Round)
		out = append(out, r)
	}
	d.buf.add(layerRound, "dispatch", start, time.Now(), tasks[0].Round)
	return out, nil
}

// searchOutcome is one run of a search workload.
type searchOutcome struct {
	res *mlsearch.SearchResult
	// wall is the duration of the whole mlsearch.Run call (for TCP that
	// includes listen and the join of both workers, as a user waits for
	// them too).
	wall time.Duration
	// firstRound is Run call → first completed round (the 3-taxon init
	// round): engine, worker and transport construction plus one task.
	firstRound time.Duration
	alloc      uint64
}

// cliForeman mirrors the fastdnaml flag defaults for parallel runs.
var cliForeman = mlsearch.ForemanOptions{Pipeline: 2, TaskTimeout: 60 * time.Second}

// runSearch runs the workload's search once. With st set the run is
// traced through the public seams; with firstRoundOnly the search is
// stopped as soon as its first round has completed (set-up timing).
func runSearch(w workload, it *instance, st *searchTrace, firstRoundOnly bool) (searchOutcome, error) {
	cfg := it.ds.config(w, it.seed)
	stop := make(chan struct{})
	var (
		once  sync.Once
		first time.Time
	)
	progress := func(int, mlsearch.ProgressEvent) {
		once.Do(func() {
			first = time.Now()
			if firstRoundOnly {
				close(stop)
			}
		})
	}
	opt := mlsearch.RunOptions{Transport: w.Transport, Workers: w.Workers, Progress: progress, Stop: stop}
	if w.Transport != mlsearch.Serial {
		opt.Foreman = cliForeman
	}
	if st != nil {
		cfg.Engine = traceEngineName
		activeTracer.Store(st.t)
		defer activeTracer.Store(nil)
		if w.Transport != mlsearch.Serial {
			opt.Obs = st.observer()
		}
	}

	var workers sync.WaitGroup
	workerErrs := make([]error, w.Workers)
	switch w.Transport {
	case mlsearch.Local:
		if st != nil {
			lay, err := mlsearch.DefaultLayout(w.Workers+2, false)
			if err != nil {
				return searchOutcome{}, err
			}
			opt.WorkerHooks = map[int]mlsearch.WorkerHooks{}
			for _, rank := range lay.Workers {
				opt.WorkerHooks[rank] = mlsearch.WorkerHooks{Engine: traceEngineName, BeforeReply: st.workerHook(rank)}
			}
		}
	case mlsearch.TCP:
		opt.Addr = "127.0.0.1:0"
		opt.Bundle = mlsearch.DataBundle{PhylipText: it.in.phylip, TTRatio: model.DefaultTTRatio}
		opt.OnListen = func(addr net.Addr) {
			for i := 0; i < w.Workers; i++ {
				var hooks mlsearch.WorkerHooks
				if st != nil {
					// Ranks 0..2 are router, foreman and the monitor slot.
					hooks.BeforeReply = st.workerHook(3 + i)
				}
				workers.Add(1)
				go func(i int) {
					defer workers.Done()
					workerErrs[i] = mlsearch.ServeElastic(addr.String(), hooks, mlsearch.ReconnectPolicy{Disabled: true})
				}(i)
			}
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var (
		res *mlsearch.SearchResult
		err error
	)
	if st != nil && w.Transport == mlsearch.Serial {
		res, err = runTracedSerial(cfg, st, progress, stop)
	} else {
		var out *mlsearch.RunOutcome
		out, err = mlsearch.Run(cfg, opt)
		if err == nil {
			res = out.Results[0]
		}
	}
	end := time.Now()
	workers.Wait()
	runtime.ReadMemStats(&ms1)
	if st != nil {
		st.master.add(layerSearch, "search", start, end, 0)
	}
	if firstRoundOnly && errors.Is(err, mlsearch.ErrStopped) {
		err = nil
	}
	if err != nil {
		return searchOutcome{}, err
	}
	// The master has its result. A worker that found its connection
	// closed while waiting for a task lost a race with the router's
	// teardown: the foreman's shutdown message can still be in flight when
	// Run closes the router.
	for i, werr := range workerErrs {
		if werr != nil && !errors.Is(werr, comm.ErrClosed) {
			return searchOutcome{}, fmt.Errorf("tcp worker %d: %w", i, werr)
		}
	}
	if first.IsZero() {
		return searchOutcome{}, errors.New("search reported no progress event")
	}
	return searchOutcome{res: res, wall: end.Sub(start), firstRound: first.Sub(start), alloc: ms1.TotalAlloc - ms0.TotalAlloc}, nil
}

// runTracedSerial is mlsearch's serial transport assembled from its
// public parts, with the benchmark's dispatcher in the middle.
func runTracedSerial(cfg mlsearch.Config, st *searchTrace, progress func(int, mlsearch.ProgressEvent), stop <-chan struct{}) (*mlsearch.SearchResult, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	eng, err := likelihood.NewEngine(norm.Engine, norm.Model, norm.Patterns, likelihood.EngineOptions{
		Precision: norm.Precision, Threads: norm.Threads,
	})
	if err != nil {
		return nil, err
	}
	defer likelihood.CloseEngine(eng)
	ev := mlsearch.NewEvaluator(eng, norm.Taxa)
	ev.SetSmoothMode(norm.SmoothMode)
	s, err := mlsearch.NewSearch(cfg, &tracedDispatcher{ev: ev, buf: st.master})
	if err != nil {
		return nil, err
	}
	s.Stop = stop
	s.Progress = func(e mlsearch.ProgressEvent) { progress(0, e) }
	return s.Run()
}

// fingerprint identifies a result bit for bit.
func fingerprint(res *mlsearch.SearchResult) string {
	return fmt.Sprintf("%016x %s", math.Float64bits(res.LnL), res.BestNewick)
}

// rescore re-evaluates a returned tree with the independent reference
// engine and compares it with the log-likelihood the program reported.
func rescore(ds *dataset, newick string, reported float64) error {
	ref, err := likelihood.NewEngine("reference", ds.mdl, ds.pat, likelihood.EngineOptions{})
	if err != nil {
		return err
	}
	tr, err := tree.ParseNewick(newick, ds.taxa)
	if err != nil {
		return fmt.Errorf("returned tree does not parse: %w", err)
	}
	got, err := ref.LogLikelihood(tr)
	if err != nil {
		return err
	}
	tol := difftest.DefaultTolerance(likelihood.Float64)
	if d := math.Abs(got - reported); d > tol.LnLAbs && d > tol.LnLRel*math.Abs(got) {
		return fmt.Errorf("reference engine scores the returned tree %.10f, program reported %.10f", got, reported)
	}
	return nil
}

// instance is one generated problem: an alignment and, from the same
// seed, the search's taxon order.
type instance struct {
	in   *input
	ds   *dataset
	seed int64
}

// instanceSeed derives the seed of the n-th problem of measuring process
// index in a run with the given seed. Every repetition is a different
// problem: search cost varies ±15 % from one alignment and taxon order to
// the next, so a run's median has to be taken over many of them before
// runs with different seeds can be compared.
func instanceSeed(seed int64, index, n int) int64 {
	return seed*1_000_003 + int64(index)*10_007 + int64(n) + 1
}

// problemCount is how many problems one measuring process searches. The
// list is fixed by the workload and the run length alone, so that two
// commits given the same seed measure the same problems however fast
// either is; a traced run searches each problem twice.
func (w workload) problemCount(seconds float64, trace bool) int {
	if trace {
		seconds /= 2
	}
	return max(2, int(seconds/w.SearchSeconds))
}

func newInstance(w workload, seed int64) (*instance, error) {
	in, err := newInput(w, seed)
	if err != nil {
		return nil, err
	}
	ds, err := in.load()
	if err != nil {
		return nil, err
	}
	if n := ds.pat.NumPatterns(); n != w.Patterns {
		return nil, fmt.Errorf("seed %d: the program compresses the alignment to %d patterns, the workload says %d", seed, n, w.Patterns)
	}
	return &instance{in: in, ds: ds, seed: seed}, nil
}

// searchChild measures one search workload in this process: set-up
// several times, then complete searches of a fixed list of problems, each
// checked. With trace every problem is also searched traced. The run's
// first process (index 0) also searches its first problem with the plain
// serial program, which every transport and thread count must reproduce
// bit for bit.
func searchChild(w workload, seed int64, index int, seconds float64, trace bool, outDir string) (*childReport, error) {
	rep := newChildReport()
	next := 0
	problem := func() (*instance, error) {
		next++
		return newInstance(w, instanceSeed(seed, index, next-1))
	}

	// Set-up: PHYLIP text in memory → first round completed.
	for i := 0; i < w.setupReps(); i++ {
		it, err := problem()
		if err != nil {
			return nil, err
		}
		out, err := runSearch(w, it, nil, true)
		rep.Attempted++
		if err != nil {
			rep.fail("set-up run: %v", err)
			continue
		}
		rep.sample("setup_s", (it.ds.load + out.firstRound).Seconds())
	}

	var (
		first      *instance
		firstOut   searchOutcome
		last       *instance
		lastOut    searchOutcome
		lastTrace  *searchTrace
		tracedWall []float64
		layerRuns  []map[string]float64
	)
	// The clock only cuts the list short on a host much slower than the
	// one it was sized on, so that the driver's whole session still fits.
	count := w.problemCount(seconds, trace)
	limit := time.Now().Add(time.Duration(1.3 * seconds * float64(time.Second)))
	for n := 0; n < count && (n < 2 || time.Now().Before(limit)); n++ {
		it, err := problem()
		if err != nil {
			return nil, err
		}
		// A problem's second search runs on warm caches, so the traced
		// and the untraced search take turns at going first.
		var st *searchTrace
		var tout searchOutcome
		if trace && n%2 == 1 {
			st = newSearchTrace()
			if tout, err = runSearch(w, it, st, false); err != nil {
				rep.fail("traced search: %v", err)
				break
			}
		}
		out, err := runSearch(w, it, nil, false)
		rep.Attempted++
		if err != nil {
			rep.fail("search: %v", err)
			break
		}
		rep.sample("time_to_result_s", out.wall.Seconds())
		rep.sample("alloc_mb", float64(out.alloc)/1e6)
		rep.Ops++
		rep.Seconds += out.wall.Seconds()
		if err := rescore(it.ds, out.res.BestNewick, out.res.LnL); err != nil {
			rep.fail("output check: %v", err)
		}
		if first == nil {
			first, firstOut = it, out
		}
		last, lastOut = it, out
		if !trace {
			continue
		}
		if st == nil {
			st = newSearchTrace()
			if tout, err = runSearch(w, it, st, false); err != nil {
				rep.fail("traced search: %v", err)
				break
			}
		}
		if fingerprint(tout.res) != fingerprint(out.res) {
			rep.fail("traced search returned a different result from the untraced one")
		}
		tracedWall = append(tracedWall, tout.wall.Seconds())
		layerRuns = append(layerRuns, searchLayers(w, it.ds, tout, st))
		lastTrace = st
	}
	if last == nil || rep.Failed > 0 {
		return rep, nil
	}

	var efficiency float64
	if index == 0 && w.parallelism() > 1 {
		sw := w
		sw.Transport, sw.Workers, sw.Threads = mlsearch.Serial, 0, 1
		out, err := runSearch(sw, first, nil, false)
		rep.Attempted++
		switch {
		case err != nil:
			rep.fail("serial baseline: %v", err)
		case fingerprint(out.res) != fingerprint(firstOut.res):
			rep.fail("%s result differs from the serial run of the same problem", w.Name)
		default:
			efficiency = out.wall.Seconds() / (float64(w.parallelism()) * firstOut.wall.Seconds())
		}
	}

	if trace && lastTrace != nil {
		// Times are medians over the traced problems; counts and sizes
		// come from the first problem alone, so that they repeat exactly
		// however many problems fit in the time.
		layers := medianMaps(layerRuns)
		for _, d := range perLayer {
			if v, ok := layerRuns[0][d.Name]; ok && (d.Unit == "count" || d.Unit == "bytes") {
				layers[d.Name] = v
			}
		}
		layers["seq.parse_ms"] = ms(first.ds.parse)
		layers["seq.compress_ms"] = ms(first.ds.compress)
		layers["seq.patterns"] = float64(first.ds.pat.NumPatterns())
		layers["trace.overhead_frac"] = median(tracedWall)/median(rep.Samples["time_to_result_s"]) - 1
		layers["mlsearch.scaling_efficiency"] = efficiency
		if err := probeSearchLayers(layers, w, last.ds, lastOut.res, lastTrace.captured()); err != nil {
			rep.fail("probes: %v", err)
		}
		rep.Layers = layers
		spans := lastTrace.t.all()
		linkParents(spans)
		if err := writeTrace(outDir, w.Name, lastTrace.t.id, layerNames[:], spans); err != nil {
			rep.fail("writing trace: %v", err)
		}
	}
	return rep, nil
}

// searchLayers turns one traced search into its layer budget.
func searchLayers(w workload, ds *dataset, out searchOutcome, st *searchTrace) map[string]float64 {
	m := map[string]float64{}
	spans := st.t.all()
	self := selfTimes(spans)
	m["search.self_s"] = self[layerSearch].Seconds()
	m["dispatch.self_s"] = self[layerRound].Seconds()
	m["evaluate.self_s"] = self[layerTask].Seconds()
	m["likelihood.self_s"] = self[layerEngine].Seconds()

	var busy time.Duration
	calls := 0
	for _, s := range spans {
		if s.Layer != layerEngine {
			continue
		}
		m["likelihood."+s.Name+"_s"] += s.dur().Seconds()
		busy += s.dur()
		calls++
	}
	m["likelihood.calls"] = float64(calls)

	res := out.res
	var genBytes, hits, misses uint64
	for _, r := range res.Rounds {
		genBytes += r.GenBytes
		var kind string
		switch r.Kind {
		case mlsearch.RoundAdd:
			kind = "evaluate.add_s"
		case mlsearch.RoundInit, mlsearch.RoundSmooth:
			kind = "evaluate.smooth_s"
		case mlsearch.RoundRearrange:
			kind = "evaluate.rearrange_s"
		case mlsearch.RoundFinal:
			kind = "evaluate.final_s"
		}
		for _, t := range r.Tasks {
			m[kind] += t.Elapsed.Seconds()
			hits += t.CacheHits
			misses += t.CacheMisses
		}
	}
	m["search.rounds"] = float64(len(res.Rounds))
	m["search.tasks"] = float64(res.TotalTasks)
	m["search.gen_bytes"] = float64(genBytes)
	m["evaluate.tasks"] = float64(res.TotalTasks)
	m["likelihood.ops"] = float64(res.TotalOps)
	if res.TotalOps > 0 {
		m["likelihood.ns_per_op"] = float64(busy.Nanoseconds()) / float64(res.TotalOps)
	}
	if hits+misses > 0 {
		m["likelihood.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	// Engine counters the Result envelope does not carry, read from the
	// engines this run built now that their goroutines have finished.
	// clv_bytes is computed from sizes, not measured: cache entries ×
	// padded patterns × 4 states × 8 bytes, for the largest engine.
	npad := (ds.pat.NumPatterns() + 7) / 8 * 8
	for _, e := range st.t.engines {
		s := e.Stats()
		m["likelihood.smooth_passes"] += float64(s.SmoothPasses)
		m["likelihood.newton_iters"] += float64(s.NewtonIters)
		if b := float64(s.Entries * npad * 4 * 8); b > m["likelihood.clv_bytes"] {
			m["likelihood.clv_bytes"] = b
		}
	}

	if w.Transport == mlsearch.Serial {
		return m
	}
	m["foreman.queue_wait_s"] = st.queueWait.Seconds()
	m["foreman.rtt_minus_eval_s"] = st.rttMinusEval.Seconds()
	m["foreman.dispatched"] = float64(st.dispatched)
	m["foreman.timeouts"] = float64(st.timeouts)
	m["foreman.inline"] = float64(st.inline)
	if st.roundSum > 0 {
		m["foreman.barrier_idle_frac"] = 1 - st.evalSum.Seconds()/(float64(w.Workers)*st.roundSum.Seconds())
	}
	if w.Transport == mlsearch.TCP && res.TotalTasks > 0 {
		// Measured at the router: every frame in and out, handshakes and
		// round batches included, per task.
		n := float64(res.TotalTasks)
		m["comm.bytes_per_task"] = sumMetric(st.reg, "fdml_net_bytes_total") / n
		m["comm.msgs_per_task"] = sumMetric(st.reg, "fdml_net_messages_total") / n
	}
	return m
}
