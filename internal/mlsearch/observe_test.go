package mlsearch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

func TestTaskCodecTraceRoundTrip(t *testing.T) {
	in := Task{
		ID: 9, Round: 4, BaseNewick: "(a,b,c);", LocalTaxon: -1,
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
		TaskID: 9, Round: 4, Lens: []EdgeLen{{A: 1, B: 2, Len: 0.5}}, LnL: -321.5,
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
	task := MarshalTask(Task{ID: 1, BaseNewick: "(a,b);"})
	res := MarshalResult(Result{TaskID: 1, Lens: []EdgeLen{{A: 1, B: 2, Len: 0.5}}, LnL: -1})
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
// total, with metrics and bus events agreeing. /metrics is scraped
// throughout the run, as a monitoring system would.
func TestRunObserverLocalRun(t *testing.T) {
	cfg := testConfig(t, 7, 150, 19)
	o := NewRunObserver(obs.NewRegistry(), obs.NewBus())
	var busCompleted int
	unsub := obs.SubscribeTo(o.Bus(), func(TaskCompleted) { busCompleted++ })
	defer unsub()

	done := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-done:
				return
			default:
				_ = o.Registry().WritePrometheus(io.Discard)
			}
		}
	}()
	out, err := Run(cfg, RunOptions{Transport: Local, Workers: 3, Obs: o})
	close(done)
	<-scraped
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
	v := o.attach()
	v.RoundStart(0, 1, 2)
	v.Dispatched(1, 0, 1, 1, time.Millisecond)
	v.Completed(1, Result{}, time.Millisecond, false)
	v.TimedOut(1, 0, 1, 1)
	v.Reinstated(1, 1)
	v.Joined(1)
	v.Left(1)
	v.Inline(0, 1, 1, -1)
	v.RoundDone(0, 1, 0, -1)
	v.Depths(0, 0, 0, 0, 0)
	v.stop()
	if o.Bus() != nil || o.Registry() != nil {
		t.Error("nil observer accessors must return nil")
	}
	if s := o.Snapshot(); s.Dispatched != 0 || s.Workers != nil {
		t.Error("nil observer snapshot must be zero")
	}
}

// scrape reads a registry's exposition as /metrics serves it: every
// sample line's value, keyed by its series (name and labels).
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestDepthGaugesSumOverForemen: the daemon's pods each run a foreman
// attached to the one RunObserver of the registry behind /metrics. The
// depth gauges sum each live foreman's last report, a foreman that stops
// takes its share out, and the snapshot's depths are the gauges'.
func TestDepthGaugesSumOverForemen(t *testing.T) {
	reg := obs.NewRegistry()
	o := NewRunObserver(reg, nil)
	live := o.attach()
	live.Depths(3, 1, 2, 4, 1)
	other := o.attach()
	other.Depths(1, 1, 1, 1, 1)
	gauges := func() [5]float64 {
		m := scrape(t, reg)
		var v [5]float64
		for k, name := range []string{"fdml_queue_depth", "fdml_busy_workers", "fdml_ready_workers", "fdml_inflight_tasks", "fdml_active_jobs"} {
			v[k] = m[name]
		}
		return v
	}
	if got, want := gauges(), [5]float64{4, 2, 3, 5, 2}; got != want {
		t.Fatalf("two foremen: gauges %v, want the sum %v", got, want)
	}
	other.stop()

	// A whole run on the same observer: its foreman reports as it
	// schedules and stops when the run ends.
	if _, err := Run(testConfig(t, 5, 60, 1), RunOptions{Transport: Local, Workers: 1, Obs: o}); err != nil {
		t.Fatal(err)
	}
	if got, want := gauges(), [5]float64{3, 1, 2, 4, 1}; got != want {
		t.Errorf("after the run's foreman stopped: gauges %v, want the live foreman's %v", got, want)
	}
	if s := o.Snapshot(); s.QueueDepth != 3 || s.Busy != 1 || s.Ready != 2 || s.Inflight != 4 || s.ActiveJobs != 1 {
		t.Errorf("snapshot depths %d/%d/%d/%d/%d, want the gauges' 3/1/2/4/1", s.QueueDepth, s.Busy, s.Ready, s.Inflight, s.ActiveJobs)
	}
}

// TestForemenShareOneObserver: foremen attached to one observer (the
// daemon's pods, or bootstrap replicates searching side by side) number
// their jobs independently. Each keeps its own job rows and busy ranks,
// and a stopped foreman's rows and depths leave the snapshot and
// /metrics. At the parent the two job-1 rows merged into one, a reply on
// one foreman marked the other's busy worker idle, and a stopped
// foreman's rows stayed in /status.
func TestForemenShareOneObserver(t *testing.T) {
	reg := obs.NewRegistry()
	o := NewRunObserver(reg, nil)
	// Two hand-built worlds, each with one scripted worker at rank 2
	// that holds its first slice until released.
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	serve := func(world []comm.Communicator, release chan struct{}) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scriptedWorker(t, world[2], foremanRank, func(slice []Task) ([]Result, bool) {
				<-release
				return cannedResults(slice), false
			})
		}()
	}
	lay := Layout{Workers: []int{2}}
	worldA, worldB := newTestWorld(t, 3), newTestWorld(t, 3)
	serve(worldA, releaseA)
	serve(worldB, releaseB)
	foremanA, dispA := newTestMaster(t, worldA, lay, ForemanOptions{}, o)
	foremanB, dispB := newTestMaster(t, worldB, lay, ForemanOptions{}, o)
	roundA := dispatchAsync(dispA, sliceOf(1, 0, 1, "(a,b,c);"))
	roundB := dispatchAsync(dispB, sliceOf(2, 0, 1, "(a,b,c);"))

	snap := o.Snapshot()
	for deadline := time.Now().Add(10 * time.Second); (snap.Dispatched < 2 || snap.Busy < 2) && time.Now().Before(deadline); snap = o.Snapshot() {
		time.Sleep(time.Millisecond)
	}
	if len(snap.Jobs) != 2 || snap.Jobs[0].Job != 1 || snap.Jobs[1].Job != 1 {
		t.Errorf("two foremen each with job 1 open: rows %+v, want two job-1 rows", snap.Jobs)
	}
	if m := scrape(t, reg); m["fdml_active_jobs"] != 2 || m["fdml_busy_workers"] != 2 {
		t.Errorf("two foremen: active jobs %v, busy workers %v; want 2 and 2", m["fdml_active_jobs"], m["fdml_busy_workers"])
	}

	// B's replies complete its round and leave its worker idle; rank 2
	// is still busy at A.
	close(releaseB)
	if out := awaitDispatch(t, "round on foreman B", roundB); out.err != nil {
		t.Fatal(out.err)
	}
	snap = o.Snapshot()
	if len(snap.Workers) != 1 || snap.Workers[0].State != "busy" {
		t.Errorf("replies on one foreman: workers %+v, want rank 2 still busy at the other", snap.Workers)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].Tasks != 1 || snap.Busy != 1 || snap.ActiveJobs != 1 {
		t.Errorf("B's round done: rows %+v, %d busy, %d jobs; want A's row, 1 and 1", snap.Jobs, snap.Busy, snap.ActiveJobs)
	}

	// Stop A with its round still open: its row and its depths leave the
	// snapshot and /metrics; B's ready worker stays.
	if err := foremanA.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if out := awaitDispatch(t, "round on a stopped foreman", roundA); out.err == nil {
		t.Error("a round open at a stopped foreman answered without error")
	}
	snap = o.Snapshot()
	m := scrape(t, reg)
	if len(snap.Jobs) != 0 || snap.Workers[0].State != "idle" || snap.ActiveJobs != 0 || snap.Busy != 0 || snap.Ready != 1 {
		t.Errorf("after A stopped: %+v, want no rows, rank 2 idle, B's one ready worker", snap)
	}
	if m["fdml_active_jobs"] != 0 || m["fdml_busy_workers"] != 0 || m["fdml_ready_workers"] != 1 {
		t.Errorf("after A stopped: gauges %v jobs / %v busy / %v ready, want 0 / 0 / 1",
			m["fdml_active_jobs"], m["fdml_busy_workers"], m["fdml_ready_workers"])
	}
	close(releaseA)
	if err := foremanB.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestRecentSpansRing: a snapshot shows the last recentSpans completed
// task spans, oldest first, with hex ids and the task's phases; untraced
// results leave no span.
func TestRecentSpansRing(t *testing.T) {
	o := NewRunObserver(nil, nil)
	v := o.attach()
	v.Completed(2, Result{TaskID: 1}, time.Millisecond, false)
	if got := o.Snapshot().Recent; len(got) != 0 {
		t.Fatalf("an untraced result left %d spans", len(got))
	}
	const n = recentSpans + 5
	for i := 1; i <= n; i++ {
		res := Result{TaskID: uint64(i), Round: uint64(i), Eval: time.Millisecond, Trace: obs.SpanContext{TraceID: 0xab, SpanID: uint64(i)}}
		v.Completed(2, res, 3*time.Millisecond, false)
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
