package mlsearch

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Run-level observability. A RunObserver is the hosting process's sink
// for everything the foreman sees, and the foreman's only one: each event
// site calls it once. It updates the metrics registry, publishes typed
// events on the bus (the monitor's line printer is an ordinary subscriber
// of that bus), closes task trace spans with their per-phase latencies,
// and keeps the run's one tally: the snapshot that the /status endpoint
// serves live and RunOutcome.Monitor holds at shutdown. Every method is
// nil-receiver safe, so the foreman's call sites cost one nil check when
// no observer is attached.

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

// jobRow accumulates one open round's progress, keyed by job id.
type jobRow struct {
	Round      uint64
	Tasks      int
	Dispatched int
	Completed  int
	Inline     int
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

// RunObserver receives the foreman's dispatch-loop instrumentation.
type RunObserver struct {
	reg *obs.Registry
	bus *obs.Bus

	mRounds     *obs.Counter
	mDispatch   *obs.Counter
	mResults    *obs.CounterVec
	mTimeouts   *obs.CounterVec
	mReinstates *obs.CounterVec
	mJoins      *obs.Counter
	mLeaves     *obs.Counter
	mInline     *obs.Counter
	gRound      *obs.Gauge
	gQueue      *obs.Gauge
	gBusy       *obs.Gauge
	gReady      *obs.Gauge
	gInflight   *obs.Gauge
	gActiveJobs *obs.Gauge
	gBestLnL    *obs.Gauge
	hPhase      *obs.HistogramVec

	mu      sync.Mutex
	started time.Time
	snap    RunSnapshot
	hist    map[int]*workerHistory
	busy    map[int]bool
	jobs    map[uint64]*jobRow
	// spans is the ring of the last recentSpans completed task spans;
	// spanNext is the slot the next one overwrites.
	spans    [recentSpans]taskSpan
	spanNext int
	spanFull bool

	// reported is what this observer has added to the depth gauges
	// (queue, busy, ready, inflight, jobs), which every observer on a
	// registry shares: the daemon's pods each report their own foreman.
	reported [5]int
}

// NewRunObserver builds an observer over a registry and an event bus
// (either may be nil: a nil registry records no metrics, a nil bus is
// replaced by a private one for Bus to return). The span ring retains the
// last 64 completed tasks.
func NewRunObserver(reg *obs.Registry, bus *obs.Bus) *RunObserver {
	if bus == nil {
		bus = obs.NewBus()
	}
	o := &RunObserver{
		reg: reg,
		bus: bus,

		mRounds:     reg.Counter("fdml_rounds_total", "Completed dispatch rounds."),
		mDispatch:   reg.Counter("fdml_dispatch_total", "Tasks handed to workers."),
		mResults:    reg.CounterVec("fdml_results_total", "Results accepted, by worker rank.", "worker"),
		mTimeouts:   reg.CounterVec("fdml_timeouts_total", "Fault-tolerance removals, by worker rank.", "worker"),
		mReinstates: reg.CounterVec("fdml_reinstates_total", "Delinquent workers reinstated, by rank.", "worker"),
		mJoins:      reg.Counter("fdml_joins_total", "Workers that joined the world."),
		mLeaves:     reg.Counter("fdml_leaves_total", "Workers that left permanently."),
		mInline:     reg.Counter("fdml_inline_total", "Tasks the foreman evaluated inline."),
		gRound:      reg.Gauge("fdml_round", "Current dispatch round."),
		gQueue:      reg.Gauge("fdml_queue_depth", "Tasks waiting in the work queue."),
		gBusy:       reg.Gauge("fdml_busy_workers", "Workers with a task in flight."),
		gReady:      reg.Gauge("fdml_ready_workers", "Alive workers with spare pipeline capacity."),
		gInflight:   reg.Gauge("fdml_inflight_tasks", "Total dispatched tasks awaiting results."),
		gActiveJobs: reg.Gauge("fdml_active_jobs", "Jobs with an open round at the foreman."),
		gBestLnL:    reg.Gauge("fdml_best_lnl", "Best log-likelihood seen so far."),
		hPhase:      reg.HistogramVec("fdml_task_phase_seconds", "Per-task phase latency.", taskPhaseBuckets, "phase"),

		started: time.Now(),
		hist:    map[int]*workerHistory{},
		busy:    map[int]bool{},
		jobs:    map[uint64]*jobRow{},
	}
	o.snap.Started = o.started
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
// can exceed one. The gauges get the change since this observer's last
// report, so on a shared registry they sum over every observer's foreman.
func (o *RunObserver) Depths(queue, busy, ready, inflight, jobs int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.report([5]int{queue, busy, ready, inflight, jobs})
	o.snap.QueueDepth, o.snap.Busy, o.snap.Ready, o.snap.Inflight = queue, busy, ready, inflight
	o.snap.ActiveJobs = jobs
	o.mu.Unlock()
}

// report moves this observer's share of the depth gauges to now. The
// caller holds o.mu.
func (o *RunObserver) report(now [5]int) {
	for k, g := range []*obs.Gauge{o.gQueue, o.gBusy, o.gReady, o.gInflight, o.gActiveJobs} {
		g.Add(float64(now[k] - o.reported[k]))
	}
	o.reported = now
}

// foremanStopped takes a stopped foreman's share out of the depth
// gauges; the snapshot keeps its last depths.
func (o *RunObserver) foremanStopped() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.report([5]int{})
	o.mu.Unlock()
}

// RoundStart records a round opened at the foreman.
func (o *RunObserver) RoundStart(job, round uint64, tasks int) {
	if o == nil {
		return
	}
	o.gRound.Set(float64(round))
	o.mu.Lock()
	o.snap.Round = round
	o.jobs[job] = &jobRow{Round: round, Tasks: tasks}
	o.mu.Unlock()
	o.bus.Publish(RoundStarted{Job: job, Round: round, Tasks: tasks, At: time.Now()})
}

// Dispatched records one task send, with the time it sat queued.
func (o *RunObserver) Dispatched(worker int, job, round, taskID uint64, queueWait time.Duration) {
	if o == nil {
		return
	}
	o.mDispatch.Inc()
	o.hPhase.With(obs.PhaseQueue).Observe(queueWait.Seconds())
	o.mu.Lock()
	o.snap.Dispatched++
	o.busy[worker] = true
	if row := o.jobs[job]; row != nil {
		row.Dispatched++
	}
	o.mu.Unlock()
	o.bus.Publish(TaskDispatched{Worker: worker, Job: job, Round: round, TaskID: taskID, QueueWait: queueWait})
}

// Completed records one accepted result and closes its trace span.
// stillBusy reports whether the worker has other slices in flight: with
// pipelining a reply does not make its worker idle.
func (o *RunObserver) Completed(worker int, res Result, rtt time.Duration, stillBusy bool) {
	if o == nil {
		return
	}
	o.mResults.With(rankLabel(worker)).Inc()
	if rtt > 0 {
		o.hPhase.With(obs.PhaseRTT).Observe(rtt.Seconds())
	}
	if res.Eval > 0 {
		o.hPhase.With(obs.PhaseEval).Observe(res.Eval.Seconds())
		if net := rtt - res.Eval; net > 0 {
			o.hPhase.With(obs.PhaseNetwork).Observe(net.Seconds())
		}
	}
	now := time.Now()
	o.mu.Lock()
	o.snap.Completed++
	h := o.worker(worker)
	h.Tasks++
	h.EvalTotal += res.Eval
	h.LastSeen = now
	if !stillBusy {
		delete(o.busy, worker)
	}
	if row := o.jobs[res.Job]; row != nil {
		row.Completed++
	}
	if res.Trace.Valid() {
		o.spans[o.spanNext] = taskSpan{ctx: res.Trace, worker: worker, round: res.Round, end: now, rtt: rtt, eval: res.Eval}
		if o.spanNext++; o.spanNext == recentSpans {
			o.spanNext, o.spanFull = 0, true
		}
	}
	o.mu.Unlock()
	o.bus.Publish(TaskCompleted{Worker: worker, Job: res.Job, Round: res.Round, TaskID: res.TaskID, LnL: res.LnL, RTT: rtt, Eval: res.Eval})
}

// TimedOut records a fault-tolerance removal (deadline missed or send
// failed); the task has been requeued.
func (o *RunObserver) TimedOut(worker int, job, round, taskID uint64) {
	if o == nil {
		return
	}
	o.mTimeouts.With(rankLabel(worker)).Inc()
	o.mu.Lock()
	o.snap.Timeouts++
	o.worker(worker).Timeouts++
	delete(o.busy, worker)
	o.mu.Unlock()
	o.bus.Publish(WorkerTimedOut{Worker: worker, Job: job, Round: round, TaskID: taskID})
}

// Reinstated records a delinquent worker welcomed back.
func (o *RunObserver) Reinstated(worker int, round uint64) {
	if o == nil {
		return
	}
	o.mReinstates.With(rankLabel(worker)).Inc()
	o.mu.Lock()
	o.snap.Reinstates++
	o.worker(worker).Reinstates++
	o.mu.Unlock()
	o.bus.Publish(WorkerReinstated{Worker: worker, Round: round})
}

// Joined records a worker entering the membership.
func (o *RunObserver) Joined(worker int) {
	if o == nil {
		return
	}
	o.mJoins.Inc()
	o.mu.Lock()
	o.snap.Joins++
	o.worker(worker).LastSeen = time.Now()
	o.mu.Unlock()
	o.bus.Publish(WorkerJoined{Worker: worker})
}

// Left records a permanent departure.
func (o *RunObserver) Left(worker int) {
	if o == nil {
		return
	}
	o.mLeaves.Inc()
	o.mu.Lock()
	o.snap.Leaves++
	delete(o.busy, worker)
	o.mu.Unlock()
	o.bus.Publish(WorkerLeft{Worker: worker})
}

// Inline records one task the foreman evaluated itself.
func (o *RunObserver) Inline(job, round, taskID uint64, lnL float64) {
	if o == nil {
		return
	}
	o.mInline.Inc()
	o.mu.Lock()
	o.snap.Inline++
	if row := o.jobs[job]; row != nil {
		row.Inline++
		row.Completed++
	}
	o.mu.Unlock()
	o.bus.Publish(InlineEvaluated{Job: job, Round: round, TaskID: taskID, LnL: lnL})
}

// RoundDone records a round reply with its best likelihood.
func (o *RunObserver) RoundDone(job, round uint64, members int, bestLnL float64) {
	if o == nil {
		return
	}
	o.mRounds.Inc()
	o.gBestLnL.Set(bestLnL)
	o.mu.Lock()
	o.snap.Rounds++
	o.snap.BestLnL = bestLnL
	o.snap.Members = members
	delete(o.jobs, job)
	o.mu.Unlock()
	o.bus.Publish(RoundCompleted{Job: job, Round: round, BestLnL: bestLnL, At: time.Now()})
}

// Snapshot renders the live /status document.
func (o *RunObserver) Snapshot() RunSnapshot {
	if o == nil {
		return RunSnapshot{}
	}
	o.mu.Lock()
	s := o.snap
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
		if o.busy[r] {
			row.State = "busy"
		}
		if !h.LastSeen.IsZero() {
			row.LastSeen = h.LastSeen.Format(time.RFC3339Nano)
		}
		s.Workers = append(s.Workers, row)
	}
	jobIDs := make([]uint64, 0, len(o.jobs))
	for id := range o.jobs {
		jobIDs = append(jobIDs, id)
	}
	sort.Slice(jobIDs, func(i, j int) bool { return jobIDs[i] < jobIDs[j] })
	s.Jobs = make([]JobRunSnapshot, 0, len(jobIDs))
	for _, id := range jobIDs {
		row := o.jobs[id]
		s.Jobs = append(s.Jobs, JobRunSnapshot{
			Job: id, Round: row.Round, Tasks: row.Tasks,
			Dispatched: row.Dispatched, Completed: row.Completed, Inline: row.Inline,
		})
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
// latency, engine cache and kernel counters, reconnect history. All
// methods are nil-receiver safe.
type WorkerObserver struct {
	reg *obs.Registry

	mTasks      *obs.Counter
	hEval       *obs.Histogram
	mHits       *obs.Counter
	mMisses     *obs.Counter
	mOps        *obs.Counter
	mNewton     *obs.Counter
	mReconnects *obs.Counter
	gThreads    *obs.Gauge
	gShardDisp  *obs.Gauge

	mu      sync.Mutex
	started time.Time
	snap    WorkerSnapshot
}

// NewWorkerObserver builds a worker-side observer over a registry (nil
// records nothing but still snapshots).
func NewWorkerObserver(reg *obs.Registry) *WorkerObserver {
	o := &WorkerObserver{
		reg:         reg,
		mTasks:      reg.Counter("fdml_worker_tasks_total", "Tasks served by this worker."),
		hEval:       reg.Histogram("fdml_worker_eval_seconds", "Task evaluation latency.", taskPhaseBuckets),
		mHits:       reg.Counter("fdml_engine_cache_hits_total", "CLV cache hits."),
		mMisses:     reg.Counter("fdml_engine_cache_misses_total", "CLV cache misses."),
		mOps:        reg.Counter("fdml_engine_ops_total", "Likelihood kernel work units."),
		mNewton:     reg.Counter("fdml_engine_newton_iters_total", "Newton-Raphson iterations."),
		mReconnects: reg.Counter("fdml_worker_reconnects_total", "Reconnections to the master."),
		gThreads:    reg.Gauge("fdml_worker_threads", "Likelihood kernel threads on this worker."),
		gShardDisp:  reg.Gauge("fdml_engine_shard_dispatches", "Cumulative threaded kernel dispatches."),
		started:     time.Now(),
	}
	o.snap.Started = o.started
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
		o.mReconnects.Inc()
	}
	o.snap.Rank = rank
	o.mu.Unlock()
}

// Served records one evaluated task from its Result.
func (o *WorkerObserver) Served(res Result) {
	if o == nil {
		return
	}
	o.mTasks.Inc()
	o.hEval.Observe(res.Eval.Seconds())
	o.mHits.Add(float64(res.CacheHits))
	o.mMisses.Add(float64(res.CacheMisses))
	o.mOps.Add(float64(res.Ops))
	o.mNewton.Add(float64(res.NewtonIters))
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
	o.gThreads.Set(float64(threads))
	o.gShardDisp.Set(float64(shardDispatches))
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
