package mlsearch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTaskCodecTraceRoundTrip(t *testing.T) {
	in := Task{
		ID: 9, Round: 4, Newick: "(a,b,c);", LocalTaxon: -1,
		Trace: obs.SpanContext{TraceID: 0xdead, SpanID: 0xbeef},
	}
	out, err := UnmarshalTask(MarshalTask(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestResultCodecTraceRoundTrip(t *testing.T) {
	in := Result{
		TaskID: 9, Round: 4, Newick: "(a,b,c);", LnL: -321.5,
		Ops: 7, CacheHits: 3, CacheMisses: 2,
		Eval: 1500 * time.Microsecond, NewtonIters: 11,
		Trace: obs.SpanContext{TraceID: 1, SpanID: 2},
	}
	out, err := UnmarshalResult(MarshalResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

// TestCodecRefusesTrailingBytes: the handshake magic is the wire's only
// version, so a slice frame holds exactly its fields. Bytes after them —
// a newer peer's field, or a truncated one — are refused, not skipped.
func TestCodecRefusesTrailingBytes(t *testing.T) {
	task := MarshalTask(Task{ID: 1, Newick: "(a,b);"})
	res := MarshalResult(Result{TaskID: 1, Newick: "(a,b);", LnL: -1})
	for _, extra := range [][]byte{{0}, []byte("\xe0\x00\x00\x00\x07payload"), []byte("\xe0\x00\x00")} {
		if _, err := UnmarshalTask(append(append([]byte(nil), task...), extra...)); err == nil {
			t.Errorf("task slice followed by %q accepted", extra)
		}
		if _, err := UnmarshalResult(append(append([]byte(nil), res...), extra...)); err == nil {
			t.Errorf("result slice followed by %q accepted", extra)
		}
	}
}

// TestRunObserverLocalRun is the subsystem's acceptance check: attach an
// observer to an in-process parallel run and require the /status
// snapshot's per-worker task counts to sum to the foreman's dispatch
// total, with metrics and bus events agreeing.
func TestRunObserverLocalRun(t *testing.T) {
	cfg := testConfig(t, 7, 150, 19)
	o := NewRunObserver(obs.NewRegistry(), obs.NewBus())
	var busCompleted int
	unsub := obs.SubscribeTo(o.Bus(), func(TaskCompleted) { busCompleted++ })
	defer unsub()

	out, err := Run(cfg, RunOptions{Transport: Local, Workers: 3, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results[0]

	snap := o.Snapshot()
	if snap.Dispatched != res.TotalTasks {
		t.Errorf("snapshot dispatched %d != search total tasks %d", snap.Dispatched, res.TotalTasks)
	}
	if snap.Completed != snap.Dispatched {
		t.Errorf("completed %d != dispatched %d (no faults in this run)", snap.Completed, snap.Dispatched)
	}
	sum := 0
	for _, w := range snap.Workers {
		sum += w.Tasks
	}
	if sum != snap.Dispatched {
		t.Errorf("per-worker tasks sum %d != dispatched %d", sum, snap.Dispatched)
	}
	if busCompleted != snap.Completed {
		t.Errorf("bus saw %d completions, snapshot %d", busCompleted, snap.Completed)
	}
	if snap.Round == 0 || snap.BestLnL >= 0 {
		t.Errorf("snapshot missing round/lnl: round=%d lnl=%g", snap.Round, snap.BestLnL)
	}
	if len(snap.Recent) == 0 {
		t.Error("no trace spans recorded")
	} else {
		rec := snap.Recent[len(snap.Recent)-1]
		if rec.Trace == "" || rec.PhasesMs[obs.PhaseEval] <= 0 {
			t.Errorf("span lacks trace/eval phase: %+v", rec)
		}
	}

	// The snapshot serves over HTTP as /status and the registry as
	// /metrics.
	srv, err := obs.NewStatusServer(obs.StatusOptions{
		Addr:     "127.0.0.1:0",
		Registry: o.Registry(),
		Snapshot: func() any { return o.Snapshot() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr().String() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var viaHTTP RunSnapshot
	if err := json.Unmarshal(body, &viaHTTP); err != nil {
		t.Fatalf("/status not a RunSnapshot: %v\n%s", err, body)
	}
	if viaHTTP.Dispatched != snap.Dispatched {
		t.Errorf("/status dispatched %d != %d", viaHTTP.Dispatched, snap.Dispatched)
	}

	mresp, err := http.Get("http://" + srv.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"fdml_dispatch_total", "fdml_results_total", "fdml_task_phase_seconds_bucket"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestSnapshotBusyWhileSliceInFlight: with two slices pipelined to one
// worker, answering the first leaves the worker evaluating the second,
// and /status must say so. At the parent every reply marked its worker
// idle.
func TestSnapshotBusyWhileSliceInFlight(t *testing.T) {
	world := newTestWorld(t, 3)
	lay := Layout{Workers: []int{2}}
	holding := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		served := 0
		scriptedWorker(t, world[2], 1, func(slice []Task) ([]Result, bool) {
			if served++; served == 2 {
				close(holding)
				<-release
			}
			return cannedResults(slice), false
		})
	}()
	o := NewRunObserver(nil, nil)
	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{Pipeline: 2}, o)
	// One live worker: the guided cut is one candidate of two, so the
	// round goes out as two slices, both to rank 2.
	round := dispatchAsync(disp, sliceOf(2, 0, 1, "(a,b,c);"))
	<-holding
	deadline := time.Now().Add(10 * time.Second)
	snap := o.Snapshot()
	for snap.Completed < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		snap = o.Snapshot()
	}
	if snap.Completed != 1 || len(snap.Workers) != 1 || snap.Workers[0].State != "busy" {
		t.Errorf("first of two slices answered: completed %d, workers %+v, want rank 2 busy", snap.Completed, snap.Workers)
	}
	close(release)
	if out := awaitDispatch(t, "pipelined round", round); out.err != nil {
		t.Fatal(out.err)
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if snap := o.Snapshot(); snap.Workers[0].State != "idle" {
		t.Errorf("every slice answered, worker state %q, want idle", snap.Workers[0].State)
	}
}

// TestMetricsHaveNoPerJobSeries: the daemon's registry outlives every
// job its pods run, so the foreman's metrics must not mint a series per
// job id; the per-job view is the /status jobs rows.
func TestMetricsHaveNoPerJobSeries(t *testing.T) {
	cfg := testConfig(t, 6, 100, 29)
	reg := obs.NewRegistry()
	if _, err := Run(cfg, RunOptions{Transport: Local, Workers: 2, Jumbles: 3, Obs: NewRunObserver(reg, nil)}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "job=") {
		t.Errorf("/metrics carries per-job series:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "fdml_dispatch_total") {
		t.Error("/metrics lacks fdml_dispatch_total")
	}
}

func TestWorkerObserver(t *testing.T) {
	o := NewWorkerObserver(obs.NewRegistry())
	o.Attached(4)
	o.Served(Result{Ops: 10, CacheHits: 2, CacheMisses: 1, Eval: 2 * time.Millisecond, NewtonIters: 5})
	o.Served(Result{Ops: 5, Eval: time.Millisecond})
	o.Attached(6) // reconnect under a fresh rank
	snap := o.Snapshot()
	if snap.Rank != 6 || snap.Tasks != 2 || snap.Reconnects != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Ops != 15 || snap.CacheHits != 2 || snap.NewtonIters != 5 {
		t.Errorf("counters wrong: %+v", snap)
	}
	if snap.EvalMs < 2.9 {
		t.Errorf("eval ms = %v, want ~3", snap.EvalMs)
	}

	var nilObs *WorkerObserver
	nilObs.Attached(1)
	nilObs.Served(Result{})
	if nilObs.Snapshot() != (WorkerSnapshot{}) {
		t.Error("nil WorkerObserver must be inert")
	}
}

func TestRunObserverNilIsInert(t *testing.T) {
	var o *RunObserver
	o.RoundStart(0, 1, 2)
	o.Dispatched(1, 0, 1, 1, time.Millisecond)
	o.Completed(1, Result{}, time.Millisecond, false)
	o.TimedOut(1, 0, 1, 1)
	o.Reinstated(1, 1)
	o.Joined(1)
	o.Left(1)
	o.Inline(0, 1, 1, -1)
	o.RoundDone(0, 1, 0, -1)
	o.Depths(0, 0, 0, 0, 0)
	if o.Bus() != nil || o.Registry() != nil {
		t.Error("nil observer accessors must return nil")
	}
	if s := o.Snapshot(); s.Dispatched != 0 || s.Workers != nil {
		t.Error("nil observer snapshot must be zero")
	}
}

// TestDepthGaugesSumOverObservers: the daemon's pods each run a foreman
// with its own RunObserver on the one registry behind /metrics. The
// depth gauges are each observer's change since its own last report, so
// they sum over live foremen, and a foreman that stops takes its share
// out; each observer's snapshot still shows only its own depths.
func TestDepthGaugesSumOverObservers(t *testing.T) {
	reg := obs.NewRegistry()
	live := NewRunObserver(reg, nil)
	live.Depths(3, 1, 2, 4, 1)
	run := NewRunObserver(reg, nil)
	run.Depths(1, 1, 1, 1, 1)
	gauges := func() [5]float64 {
		var v [5]float64
		for k, name := range []string{"fdml_queue_depth", "fdml_busy_workers", "fdml_ready_workers", "fdml_inflight_tasks", "fdml_active_jobs"} {
			v[k] = reg.Gauge(name, "").Value()
		}
		return v
	}
	if got, want := gauges(), [5]float64{4, 2, 3, 5, 2}; got != want {
		t.Fatalf("two observers: gauges %v, want the sum %v", got, want)
	}

	// A whole run on the second observer: its foreman reports as it
	// schedules and stops when the run ends.
	if _, err := Run(testConfig(t, 5, 60, 1), RunOptions{Transport: Local, Workers: 1, Obs: run}); err != nil {
		t.Fatal(err)
	}
	if got, want := gauges(), [5]float64{3, 1, 2, 4, 1}; got != want {
		t.Errorf("after the run's foreman stopped: gauges %v, want the live observer's %v", got, want)
	}
	if s := live.Snapshot(); s.QueueDepth != 3 || s.Busy != 1 || s.Ready != 2 || s.Inflight != 4 || s.ActiveJobs != 1 {
		t.Errorf("live snapshot depths %d/%d/%d/%d/%d, want its own 3/1/2/4/1", s.QueueDepth, s.Busy, s.Ready, s.Inflight, s.ActiveJobs)
	}
	if s := run.Snapshot(); s.Ready != 1 || s.ActiveJobs != 0 {
		t.Errorf("stopped snapshot: %d ready, %d jobs; want its last report, 1 and 0", s.Ready, s.ActiveJobs)
	}
}

// TestRecentSpansRing: a snapshot shows the last recentSpans completed
// task spans, oldest first, with hex ids and the task's phases; untraced
// results leave no span.
func TestRecentSpansRing(t *testing.T) {
	o := NewRunObserver(nil, nil)
	o.Completed(2, Result{TaskID: 1}, time.Millisecond, false)
	if got := o.Snapshot().Recent; len(got) != 0 {
		t.Fatalf("an untraced result left %d spans", len(got))
	}
	const n = recentSpans + 5
	for i := 1; i <= n; i++ {
		res := Result{TaskID: uint64(i), Round: uint64(i), Eval: time.Millisecond, Trace: obs.SpanContext{TraceID: 0xab, SpanID: uint64(i)}}
		o.Completed(2, res, 3*time.Millisecond, false)
	}
	recent := o.Snapshot().Recent
	if len(recent) != recentSpans {
		t.Fatalf("%d recent spans, want %d", len(recent), recentSpans)
	}
	for i, rec := range recent {
		if want := uint64(n - recentSpans + 1 + i); rec.Round != want {
			t.Fatalf("recent[%d] is round %d, want %d (oldest first)", i, rec.Round, want)
		}
	}
	last := recent[len(recent)-1]
	if last.Trace != "00000000000000ab" || last.Span != fmt.Sprintf("%016x", n) || last.Worker != 2 || last.Name != "task" {
		t.Errorf("last span %+v", last)
	}
	if ph := last.PhasesMs; ph[obs.PhaseRTT] != 3 || ph[obs.PhaseEval] != 1 || ph[obs.PhaseNetwork] != 2 {
		t.Errorf("phases %v, want rtt 3, eval 1, network 2", ph)
	}
}
