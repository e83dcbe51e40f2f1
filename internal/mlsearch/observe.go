package mlsearch

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Run-level observability. A RunObserver is the hosting process's sink
// for everything its foremen see: each foreman attaches a view of it
// (attach), and each event site calls that view once. The observer keeps
// the one tally of the process: cumulative counts, per-rank history,
// trace spans, round and best lnL. A view keeps what is true of its
// foreman only while it runs (depths, open job rows, busy ranks), and the
// foreman's stop drops it. The snapshot that /status serves and
// RunOutcome.Monitor holds is a read of both, and so are the counters
// and gauges /metrics renders; the observer also publishes typed events
// on the bus (the monitor's line printer is an ordinary subscriber) and
// feeds the phase histograms. A registry has one RunObserver: the
// daemon's fleet hands its one to every pod. Every method is nil-receiver
// safe, so the foreman's call sites cost one nil check when no observer
// is attached.

// Typed bus events, published on the foreman's goroutine.
type (
	// RoundStarted marks the foreman opening a submitted round. Job
	// identifies the submitting search when several share the foreman
	// (0 in single-job runs).
	RoundStarted struct {
		Job   uint64
		Round uint64
		Tasks int
		At    time.Time
	}
	// TaskDispatched marks one task handed to a worker.
	TaskDispatched struct {
		Worker int
		Job    uint64
		Round  uint64
		TaskID uint64
		// QueueWait is how long the task sat in the work queue.
		QueueWait time.Duration
	}
	// TaskCompleted marks a result accepted from a worker.
	TaskCompleted struct {
		Worker int
		Job    uint64
		Round  uint64
		TaskID uint64
		LnL    float64
		// RTT is dispatch-to-result as seen by the foreman; Eval is the
		// worker-reported evaluation time carried in the reply envelope.
		// RTT - Eval approximates the network + serialization share.
		RTT, Eval time.Duration
	}
	// WorkerTimedOut marks a fault-tolerance removal (deadline missed or
	// send failed); the task is requeued.
	WorkerTimedOut struct {
		Worker int
		Job    uint64
		Round  uint64
		TaskID uint64
	}
	// WorkerReinstated marks a delinquent worker welcomed back after a
	// late reply.
	WorkerReinstated struct {
		Worker int
		Round  uint64
	}
	// WorkerJoined marks a worker entering the membership.
	WorkerJoined struct{ Worker int }
	// WorkerLeft marks a permanent departure.
	WorkerLeft struct{ Worker int }
	// InlineEvaluated marks a task the foreman evaluated itself because
	// no live workers remained.
	InlineEvaluated struct {
		Job    uint64
		Round  uint64
		TaskID uint64
		LnL    float64
	}
	// RoundCompleted marks a round answered to its search.
	RoundCompleted struct {
		Job     uint64
		Round   uint64
		BestLnL float64
		At      time.Time
	}
)

// taskPhaseBuckets bound the per-phase latency histograms: tasks run
// sub-millisecond (cache-hot insertions) to tens of seconds (full
// smoothing of big trees).
var taskPhaseBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// workerHistory accumulates one worker's lifetime within a run.
type workerHistory struct {
	Tasks      int
	Timeouts   int
	Reinstates int
	EvalTotal  time.Duration
	LastSeen   time.Time
}

// WorkerRunSnapshot is one worker's row in a RunSnapshot.
type WorkerRunSnapshot struct {
	Rank       int     `json:"rank"`
	Tasks      int     `json:"tasks"`
	Timeouts   int     `json:"timeouts"`
	Reinstates int     `json:"reinstates"`
	EvalMs     float64 `json:"eval_ms"`
	LastSeen   string  `json:"last_seen,omitempty"`
	State      string  `json:"state"`
}

// JobRunSnapshot is one open job's row in a RunSnapshot.
type JobRunSnapshot struct {
	Job        uint64 `json:"job"`
	Round      uint64 `json:"round"`
	Tasks      int    `json:"tasks"`
	Dispatched int    `json:"dispatched"`
	Completed  int    `json:"completed"`
	Inline     int    `json:"inline,omitempty"`
}

// RunSnapshot is the /status JSON document of a hosting process. Round
// is the last round id opened; Rounds counts the rounds answered, which
// differs once jumbles run concurrently.
type RunSnapshot struct {
	Started    time.Time           `json:"started"`
	UptimeMs   float64             `json:"uptime_ms"`
	Round      uint64              `json:"round"`
	Rounds     int                 `json:"rounds"`
	QueueDepth int                 `json:"queue_depth"`
	Busy       int                 `json:"busy_workers"`
	Ready      int                 `json:"ready_workers"`
	Inflight   int                 `json:"inflight_tasks"`
	ActiveJobs int                 `json:"active_jobs"`
	Members    int                 `json:"members"`
	BestLnL    float64             `json:"best_lnl"`
	Dispatched int                 `json:"dispatched"`
	Completed  int                 `json:"completed"`
	Inline     int                 `json:"inline"`
	Timeouts   int                 `json:"timeouts"`
	Reinstates int                 `json:"reinstates"`
	Joins      int                 `json:"joins"`
	Leaves     int                 `json:"leaves"`
	Workers    []WorkerRunSnapshot `json:"workers"`
	Jobs       []JobRunSnapshot    `json:"jobs,omitempty"`
	Recent     []obs.SpanRecord    `json:"recent_spans,omitempty"`
}

// taskSpan is a completed task's trace span as the observer keeps it:
// the numbers only, rendered into an obs.SpanRecord when a snapshot asks,
// so that closing a span costs the foreman no allocation.
type taskSpan struct {
	ctx       obs.SpanContext
	worker    int
	round     uint64
	end       time.Time
	rtt, eval time.Duration
}

// record renders the span for the /status document.
func (sp taskSpan) record() obs.SpanRecord {
	phases := map[string]float64{}
	if sp.rtt > 0 {
		phases[obs.PhaseRTT] = obs.PhaseMs(sp.rtt)
	}
	if sp.eval > 0 {
		phases[obs.PhaseEval] = obs.PhaseMs(sp.eval)
		if net := sp.rtt - sp.eval; net > 0 {
			phases[obs.PhaseNetwork] = obs.PhaseMs(net)
		}
	}
	return obs.SpanRecord{
		Trace: fmt.Sprintf("%016x", sp.ctx.TraceID), Span: fmt.Sprintf("%016x", sp.ctx.SpanID),
		Name: "task", Worker: sp.worker, Round: sp.round, End: sp.end, PhasesMs: phases,
	}
}

// recentSpans is how many completed task spans a snapshot shows.
const recentSpans = 64

// RunObserver receives the dispatch-loop instrumentation of every
// foreman attached to it.
type RunObserver struct {
	reg    *obs.Registry
	bus    *obs.Bus
	hPhase *obs.HistogramVec

	mu      sync.Mutex
	started time.Time
	// snap holds the cumulative tallies; the depth fields stay zero here
	// and are summed over the live views when read.
	snap  RunSnapshot
	hist  map[int]*workerHistory
	views []*foremanView // live foremen, in attach order
	// spans is the ring of the last recentSpans completed task spans;
	// spanNext is the slot the next one overwrites.
	spans    [recentSpans]taskSpan
	spanNext int
	spanFull bool
}

// foremanView is one foreman's share of its observer, guarded by the
// observer's mutex.
type foremanView struct {
	*RunObserver
	// depths is the last Depths report: queue, busy, ready, inflight,
	// jobs.
	depths [5]int
	busy   map[int]bool
	jobs   map[uint64]*JobRunSnapshot
}

// readFamily is an unlabeled counter or gauge that is a field of a
// snapshot S, read when /metrics renders.
type readFamily[S any] struct {
	declare    func(r *obs.Registry, name, help string, labels []string, read func(obs.Emit))
	name, help string
	value      func(*S) float64
}

// readCounter and readGauge are readFamily's declare column.
var readCounter, readGauge = (*obs.Registry).CounterFunc, (*obs.Registry).GaugeFunc

// declareReads declares each family on reg, reading the snapshot that
// snap returns.
func declareReads[S any](reg *obs.Registry, fams []readFamily[S], snap func() S) {
	for _, m := range fams {
		m.declare(reg, m.name, m.help, nil, func(emit obs.Emit) {
			s := snap()
			emit(m.value(&s))
		})
	}
}

// runFamilies are the observer's unlabeled counters and gauges.
var runFamilies = []readFamily[RunSnapshot]{
	{readCounter, "fdml_rounds_total", "Completed dispatch rounds.", func(s *RunSnapshot) float64 { return float64(s.Rounds) }},
	{readCounter, "fdml_dispatch_total", "Tasks handed to workers.", func(s *RunSnapshot) float64 { return float64(s.Dispatched) }},
	{readCounter, "fdml_joins_total", "Workers that joined the world.", func(s *RunSnapshot) float64 { return float64(s.Joins) }},
	{readCounter, "fdml_leaves_total", "Workers that left permanently.", func(s *RunSnapshot) float64 { return float64(s.Leaves) }},
	{readCounter, "fdml_inline_total", "Tasks the foreman evaluated inline.", func(s *RunSnapshot) float64 { return float64(s.Inline) }},
	{readGauge, "fdml_round", "Current dispatch round.", func(s *RunSnapshot) float64 { return float64(s.Round) }},
	{readGauge, "fdml_queue_depth", "Tasks waiting in the work queue.", func(s *RunSnapshot) float64 { return float64(s.QueueDepth) }},
	{readGauge, "fdml_busy_workers", "Workers with a task in flight.", func(s *RunSnapshot) float64 { return float64(s.Busy) }},
	{readGauge, "fdml_ready_workers", "Alive workers with spare pipeline capacity.", func(s *RunSnapshot) float64 { return float64(s.Ready) }},
	{readGauge, "fdml_inflight_tasks", "Total dispatched tasks awaiting results.", func(s *RunSnapshot) float64 { return float64(s.Inflight) }},
	{readGauge, "fdml_active_jobs", "Jobs with an open round at the foreman.", func(s *RunSnapshot) float64 { return float64(s.ActiveJobs) }},
	{readGauge, "fdml_best_lnl", "Best log-likelihood seen so far.", func(s *RunSnapshot) float64 { return s.BestLnL }},
}

// rankFamilies are the observer's per-rank counters, read from the
// snapshot's worker rows; a rank's series appears once it counts one.
var rankFamilies = []struct {
	name, help string
	value      func(*WorkerRunSnapshot) int
}{
	{"fdml_results_total", "Results accepted, by worker rank.", func(w *WorkerRunSnapshot) int { return w.Tasks }},
	{"fdml_timeouts_total", "Fault-tolerance removals, by worker rank.", func(w *WorkerRunSnapshot) int { return w.Timeouts }},
	{"fdml_reinstates_total", "Delinquent workers reinstated, by rank.", func(w *WorkerRunSnapshot) int { return w.Reinstates }},
}

// NewRunObserver builds an observer over a registry and an event bus
// (either may be nil: a nil registry records no metrics, a nil bus is
// replaced by a private one for Bus to return) and declares its metric
// families on the registry, which therefore takes no second RunObserver.
// The span ring retains the last 64 completed tasks.
func NewRunObserver(reg *obs.Registry, bus *obs.Bus) *RunObserver {
	if bus == nil {
		bus = obs.NewBus()
	}
	o := &RunObserver{
		reg:     reg,
		bus:     bus,
		hPhase:  reg.HistogramVec("fdml_task_phase_seconds", "Per-task phase latency.", taskPhaseBuckets, "phase"),
		started: time.Now(),
		hist:    map[int]*workerHistory{},
	}
	o.snap.Started = o.started
	declareReads(reg, runFamilies, o.Snapshot)
	for _, m := range rankFamilies {
		reg.CounterFunc(m.name, m.help, []string{"worker"}, func(emit obs.Emit) {
			for _, w := range o.Snapshot().Workers {
				if n := m.value(&w); n > 0 {
					emit(float64(n), rankLabel(w.Rank))
				}
			}
		})
	}
	return o
}

// Bus returns the observer's event bus (nil for a nil observer).
func (o *RunObserver) Bus() *obs.Bus {
	if o == nil {
		return nil
	}
	return o.bus
}

// Registry returns the observer's metrics registry (nil for a nil
// observer), so co-located components — the TCP router, the status
// server — can share it.
func (o *RunObserver) Registry() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// attach adds a foreman's view (nil for a nil observer).
func (o *RunObserver) attach() *foremanView {
	if o == nil {
		return nil
	}
	v := &foremanView{RunObserver: o, busy: map[int]bool{}, jobs: map[uint64]*JobRunSnapshot{}}
	o.mu.Lock()
	o.views = append(o.views, v)
	o.mu.Unlock()
	return v
}

// stop drops a stopped foreman's view: its depths, open job rows and
// busy ranks leave the snapshot and the gauges.
func (v *foremanView) stop() {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.views = slices.DeleteFunc(v.views, func(w *foremanView) bool { return w == v })
	v.mu.Unlock()
}

func (o *RunObserver) worker(rank int) *workerHistory {
	h := o.hist[rank]
	if h == nil {
		h = &workerHistory{}
		o.hist[rank] = h
	}
	return h
}

// Depths records the foreman's queue/busy/ready/inflight sizes and the
// number of jobs with an open round after a scheduling step; the foreman
// calls it wherever those sets change. With pipelining, inflight can
// exceed busy (several tasks per worker); with concurrent searches, jobs
// can exceed one.
func (v *foremanView) Depths(queue, busy, ready, inflight, jobs int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.depths = [5]int{queue, busy, ready, inflight, jobs}
	v.mu.Unlock()
}

// RoundStart records a round opened at the foreman.
func (v *foremanView) RoundStart(job, round uint64, tasks int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.snap.Round = round
	v.jobs[job] = &JobRunSnapshot{Job: job, Round: round, Tasks: tasks}
	v.mu.Unlock()
	v.bus.Publish(RoundStarted{Job: job, Round: round, Tasks: tasks, At: time.Now()})
}

// Dispatched records one task send, with the time it sat queued.
func (v *foremanView) Dispatched(worker int, job, round, taskID uint64, queueWait time.Duration) {
	if v == nil {
		return
	}
	v.hPhase.With(obs.PhaseQueue).Observe(queueWait.Seconds())
	v.mu.Lock()
	v.snap.Dispatched++
	v.busy[worker] = true
	if row := v.jobs[job]; row != nil {
		row.Dispatched++
	}
	v.mu.Unlock()
	v.bus.Publish(TaskDispatched{Worker: worker, Job: job, Round: round, TaskID: taskID, QueueWait: queueWait})
}

// Completed records one accepted result and closes its trace span.
// stillBusy reports whether the worker has other slices in flight: with
// pipelining a reply does not make its worker idle.
func (v *foremanView) Completed(worker int, res Result, rtt time.Duration, stillBusy bool) {
	if v == nil {
		return
	}
	if rtt > 0 {
		v.hPhase.With(obs.PhaseRTT).Observe(rtt.Seconds())
	}
	if res.Eval > 0 {
		v.hPhase.With(obs.PhaseEval).Observe(res.Eval.Seconds())
		if net := rtt - res.Eval; net > 0 {
			v.hPhase.With(obs.PhaseNetwork).Observe(net.Seconds())
		}
	}
	now := time.Now()
	v.mu.Lock()
	v.snap.Completed++
	h := v.worker(worker)
	h.Tasks++
	h.EvalTotal += res.Eval
	h.LastSeen = now
	if !stillBusy {
		delete(v.busy, worker)
	}
	if row := v.jobs[res.Job]; row != nil {
		row.Completed++
	}
	if res.Trace.Valid() {
		v.spans[v.spanNext] = taskSpan{ctx: res.Trace, worker: worker, round: res.Round, end: now, rtt: rtt, eval: res.Eval}
		if v.spanNext++; v.spanNext == recentSpans {
			v.spanNext, v.spanFull = 0, true
		}
	}
	v.mu.Unlock()
	v.bus.Publish(TaskCompleted{Worker: worker, Job: res.Job, Round: res.Round, TaskID: res.TaskID, LnL: res.LnL, RTT: rtt, Eval: res.Eval})
}

// TimedOut records a fault-tolerance removal (deadline missed or send
// failed); the task has been requeued.
func (v *foremanView) TimedOut(worker int, job, round, taskID uint64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.snap.Timeouts++
	v.worker(worker).Timeouts++
	delete(v.busy, worker)
	v.mu.Unlock()
	v.bus.Publish(WorkerTimedOut{Worker: worker, Job: job, Round: round, TaskID: taskID})
}

// Reinstated records a delinquent worker welcomed back.
func (v *foremanView) Reinstated(worker int, round uint64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.snap.Reinstates++
	v.worker(worker).Reinstates++
	v.mu.Unlock()
	v.bus.Publish(WorkerReinstated{Worker: worker, Round: round})
}

// Joined records a worker entering the membership.
func (v *foremanView) Joined(worker int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.snap.Joins++
	v.worker(worker).LastSeen = time.Now()
	v.mu.Unlock()
	v.bus.Publish(WorkerJoined{Worker: worker})
}

// Left records a permanent departure.
func (v *foremanView) Left(worker int) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.snap.Leaves++
	delete(v.busy, worker)
	v.mu.Unlock()
	v.bus.Publish(WorkerLeft{Worker: worker})
}

// Inline records one task the foreman evaluated itself.
func (v *foremanView) Inline(job, round, taskID uint64, lnL float64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.snap.Inline++
	if row := v.jobs[job]; row != nil {
		row.Inline++
		row.Completed++
	}
	v.mu.Unlock()
	v.bus.Publish(InlineEvaluated{Job: job, Round: round, TaskID: taskID, LnL: lnL})
}

// RoundDone records a round reply with its best likelihood.
func (v *foremanView) RoundDone(job, round uint64, members int, bestLnL float64) {
	if v == nil {
		return
	}
	v.mu.Lock()
	v.snap.Rounds++
	v.snap.BestLnL = bestLnL
	v.snap.Members = members
	delete(v.jobs, job)
	v.mu.Unlock()
	v.bus.Publish(RoundCompleted{Job: job, Round: round, BestLnL: bestLnL, At: time.Now()})
}

// Snapshot renders the live /status document, which the observer's
// counters and gauges also read: the tallies with the depths summed over
// the live foremen, every rank's history (busy while any live foreman
// has a slice at it), and the open rounds of every live foreman, by job
// id (one row per foreman when several foremen each have a job of the
// same id).
func (o *RunObserver) Snapshot() RunSnapshot {
	if o == nil {
		return RunSnapshot{}
	}
	o.mu.Lock()
	s := o.snap
	s.Jobs = []JobRunSnapshot{}
	for _, v := range o.views {
		for k, n := range []*int{&s.QueueDepth, &s.Busy, &s.Ready, &s.Inflight, &s.ActiveJobs} {
			*n += v.depths[k]
		}
		for _, row := range v.jobs {
			s.Jobs = append(s.Jobs, *row)
		}
	}
	sort.SliceStable(s.Jobs, func(i, j int) bool { return s.Jobs[i].Job < s.Jobs[j].Job })
	ranks := make([]int, 0, len(o.hist))
	for r := range o.hist {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	s.Workers = make([]WorkerRunSnapshot, 0, len(ranks))
	for _, r := range ranks {
		h := o.hist[r]
		row := WorkerRunSnapshot{
			Rank: r, Tasks: h.Tasks, Timeouts: h.Timeouts,
			Reinstates: h.Reinstates, EvalMs: obs.PhaseMs(h.EvalTotal),
			State: "idle",
		}
		for _, v := range o.views {
			if v.busy[r] {
				row.State = "busy"
			}
		}
		if !h.LastSeen.IsZero() {
			row.LastSeen = h.LastSeen.Format(time.RFC3339Nano)
		}
		s.Workers = append(s.Workers, row)
	}
	var spans []taskSpan
	if o.spanFull {
		spans = append(spans, o.spans[o.spanNext:]...)
	}
	spans = append(spans, o.spans[:o.spanNext]...)
	o.mu.Unlock()
	s.UptimeMs = obs.PhaseMs(time.Since(o.started))
	for _, sp := range spans {
		s.Recent = append(s.Recent, sp.record())
	}
	return s
}

// rankLabel renders a worker rank as a metric label value.
func rankLabel(rank int) string {
	if rank == int(InlineWorker) {
		return "inline"
	}
	return strconv.Itoa(rank)
}

// WorkerSnapshot is the /status JSON document of a worker process.
type WorkerSnapshot struct {
	Started     time.Time `json:"started"`
	UptimeMs    float64   `json:"uptime_ms"`
	Rank        int       `json:"rank"`
	Tasks       int       `json:"tasks"`
	Reconnects  int       `json:"reconnects"`
	EvalMs      float64   `json:"eval_ms"`
	Ops         uint64    `json:"ops"`
	CacheHits   uint64    `json:"cache_hits"`
	CacheMisses uint64    `json:"cache_misses"`
	NewtonIters uint64    `json:"newton_iters"`
	Threads     int       `json:"threads,omitempty"`
	ShardDisp   uint64    `json:"shard_dispatches,omitempty"`
	LastTask    string    `json:"last_task,omitempty"`
}

// WorkerObserver is the worker process's sink: task counts, evaluation
// latency, engine cache and kernel counters, reconnect history. Its
// counters and gauges are reads of its snapshot; only the evaluation
// latency histogram is the registry's own. All methods are nil-receiver
// safe.
type WorkerObserver struct {
	hEval *obs.Histogram

	mu      sync.Mutex
	started time.Time
	snap    WorkerSnapshot
}

// workerFamilies are the worker's counters and gauges.
var workerFamilies = []readFamily[WorkerSnapshot]{
	{readCounter, "fdml_worker_tasks_total", "Tasks served by this worker.", func(s *WorkerSnapshot) float64 { return float64(s.Tasks) }},
	{readCounter, "fdml_engine_cache_hits_total", "CLV cache hits.", func(s *WorkerSnapshot) float64 { return float64(s.CacheHits) }},
	{readCounter, "fdml_engine_cache_misses_total", "CLV cache misses.", func(s *WorkerSnapshot) float64 { return float64(s.CacheMisses) }},
	{readCounter, "fdml_engine_ops_total", "Likelihood kernel work units.", func(s *WorkerSnapshot) float64 { return float64(s.Ops) }},
	{readCounter, "fdml_engine_newton_iters_total", "Newton-Raphson iterations.", func(s *WorkerSnapshot) float64 { return float64(s.NewtonIters) }},
	{readCounter, "fdml_worker_reconnects_total", "Reconnections to the master.", func(s *WorkerSnapshot) float64 { return float64(s.Reconnects) }},
	{readGauge, "fdml_worker_threads", "Likelihood kernel threads on this worker.", func(s *WorkerSnapshot) float64 { return float64(s.Threads) }},
	{readGauge, "fdml_engine_shard_dispatches", "Cumulative threaded kernel dispatches.", func(s *WorkerSnapshot) float64 { return float64(s.ShardDisp) }},
}

// NewWorkerObserver builds a worker-side observer over a registry (nil
// records nothing but still snapshots), declaring its metric families
// there.
func NewWorkerObserver(reg *obs.Registry) *WorkerObserver {
	o := &WorkerObserver{
		hEval:   reg.Histogram("fdml_worker_eval_seconds", "Task evaluation latency.", taskPhaseBuckets),
		started: time.Now(),
	}
	o.snap.Started = o.started
	declareReads(reg, workerFamilies, o.Snapshot)
	return o
}

// Attached records a (re)join with the assigned rank; every join after
// the first counts as a reconnect.
func (o *WorkerObserver) Attached(rank int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	if o.snap.Rank != 0 || o.snap.Tasks > 0 || o.snap.Reconnects > 0 {
		o.snap.Reconnects++
	}
	o.snap.Rank = rank
	o.mu.Unlock()
}

// Served records one evaluated task from its Result.
func (o *WorkerObserver) Served(res Result) {
	if o == nil {
		return
	}
	o.hEval.Observe(res.Eval.Seconds())
	o.mu.Lock()
	o.snap.Tasks++
	o.snap.EvalMs += obs.PhaseMs(res.Eval)
	o.snap.Ops += res.Ops
	o.snap.CacheHits += res.CacheHits
	o.snap.CacheMisses += res.CacheMisses
	o.snap.NewtonIters += res.NewtonIters
	o.snap.LastTask = res.Trace.String()
	o.mu.Unlock()
}

// Engine records the worker engine's threading state: the kernel thread
// count and the cumulative threaded shard dispatches (0 while the engine
// runs serial).
func (o *WorkerObserver) Engine(threads int, shardDispatches uint64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.snap.Threads = threads
	o.snap.ShardDisp = shardDispatches
	o.mu.Unlock()
}

// Snapshot renders the worker's /status document.
func (o *WorkerObserver) Snapshot() WorkerSnapshot {
	if o == nil {
		return WorkerSnapshot{}
	}
	o.mu.Lock()
	s := o.snap
	o.mu.Unlock()
	s.UptimeMs = obs.PhaseMs(time.Since(o.started))
	return s
}
