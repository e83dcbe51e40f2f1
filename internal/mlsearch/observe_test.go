package mlsearch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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
		Ops: 7, CacheHits: 3, CacheMisses: 2, Worker: 5,
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

// appendExt appends one well-formed extension field (as a newer peer
// would) to a marshaled envelope.
func appendExt(b []byte, tag byte, payload []byte) []byte {
	b = append(b, tag)
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(payload)))
	b = append(b, n[:]...)
	return append(b, payload...)
}

func TestCodecToleratesUnknownExtensions(t *testing.T) {
	task := Task{ID: 3, Newick: "(a,b,c);", Trace: obs.SpanContext{TraceID: 7, SpanID: 8}}
	b := appendExt(MarshalTask(task), 0xE0, []byte("future field"))
	got, err := UnmarshalTask(b)
	if err != nil {
		t.Fatalf("unknown task extension rejected: %v", err)
	}
	if got != task {
		t.Errorf("known fields corrupted by unknown extension: %+v", got)
	}

	res := Result{TaskID: 3, Newick: "(a,b,c);", LnL: -1, Eval: time.Millisecond}
	rb := appendExt(MarshalResult(res), 0xE1, nil) // empty payload is well-formed
	gotRes, err := UnmarshalResult(rb)
	if err != nil {
		t.Fatalf("unknown result extension rejected: %v", err)
	}
	if !reflect.DeepEqual(gotRes, res) {
		t.Errorf("known fields corrupted: %+v", gotRes)
	}
}

func TestCodecRejectsTruncatedExtensions(t *testing.T) {
	full := appendExt(MarshalTask(Task{ID: 1, Newick: "(a,b);"}), 0xE0, []byte("payload"))
	base := len(full) - len("payload") - 5 // before the appended ext record
	for cut := base + 1; cut < len(full); cut++ {
		if _, err := UnmarshalTask(full[:cut]); err == nil {
			t.Errorf("truncated extension at %d bytes accepted", cut)
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
	lay := Layout{Master: 0, Foreman: 1, Workers: []int{2}}
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
