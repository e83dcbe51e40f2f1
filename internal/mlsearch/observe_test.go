package mlsearch

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
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
	o.Completed(1, Result{}, time.Millisecond)
	o.TimedOut(1, 0, 1, 1)
	o.Reinstated(1, 1)
	o.Joined(1)
	o.Left(1)
	o.Inline(0, 1, 1, -1)
	o.RoundDone(0, 1, 0, -1)
	o.Depths(0, 0, 0, 0, 0)
	if o.Bus() != nil || o.Registry() != nil || o.Spans() != nil {
		t.Error("nil observer accessors must return nil")
	}
	if s := o.Snapshot(); s.Dispatched != 0 || s.Workers != nil {
		t.Error("nil observer snapshot must be zero")
	}
}
