package mlsearch

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestParallelMatchesSerial: the parallel runtime must produce exactly
// the serial answer for the same configuration (paper Fig 2's protocol is
// a pure work distribution; it must not change results).
func TestParallelMatchesSerial(t *testing.T) {
	cfg := testConfig(t, 8, 180, 11)
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 7} {
		out, err := Run(cfg, RunOptions{Transport: Local, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		par := out.Results[0]
		if par.BestNewick != serial.BestNewick {
			t.Errorf("workers=%d: tree differs from serial", workers)
		}
		if par.LnL != serial.LnL {
			t.Errorf("workers=%d: lnL %g != serial %g", workers, par.LnL, serial.LnL)
		}
		if par.TotalTasks != serial.TotalTasks {
			t.Errorf("workers=%d: %d tasks != serial %d", workers, par.TotalTasks, serial.TotalTasks)
		}
	}
}

// TestParallelWithMonitor: the monitored run's one tally, the observer's
// snapshot at shutdown, agrees with the search it watched, and the
// monitor's closing line is read from it.
func TestParallelWithMonitor(t *testing.T) {
	cfg := testConfig(t, 7, 150, 13)
	var buf bytes.Buffer
	out, err := Run(cfg, RunOptions{Transport: Local, Workers: 3, MonitorOut: &buf})
	if err != nil {
		t.Fatal(err)
	}
	snap := out.Monitor
	if snap == nil {
		t.Fatal("no run snapshot from a monitored run")
	}
	res := out.Results[0]
	if snap.Completed != res.TotalTasks {
		t.Errorf("snapshot counts %d results, the search ran %d tasks", snap.Completed, res.TotalTasks)
	}
	if snap.Dispatched < res.TotalTasks || snap.Inline != 0 {
		t.Errorf("snapshot counts %d dispatches and %d inline for %d tasks", snap.Dispatched, snap.Inline, res.TotalTasks)
	}
	if snap.Rounds != len(res.Rounds) {
		t.Errorf("snapshot counts %d rounds, the search logged %d", snap.Rounds, len(res.Rounds))
	}
	// All three workers should have contributed.
	working := 0
	for _, w := range snap.Workers {
		if w.Tasks > 0 {
			working++
		}
	}
	if working != 3 {
		t.Errorf("work spread over %d workers, want 3 (%+v)", working, snap.Workers)
	}
	if want := fmt.Sprintf("monitor: shutdown after %d rounds, %d results\n", len(res.Rounds), res.TotalTasks); !strings.HasSuffix(buf.String(), want) {
		t.Errorf("monitor output ends %q, want %q", buf.String(), want)
	}
}

// TestFaultToleranceDroppedReplies: a worker that silently drops some
// replies must not wedge the run; the foreman's timeout machinery
// re-dispatches the lost trees and the answer still matches serial
// (paper §2.2).
func TestFaultToleranceDroppedReplies(t *testing.T) {
	cfg := testConfig(t, 7, 120, 17)
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	dropped := 0
	hooks := map[int]WorkerHooks{
		// Worker rank 2 (the first worker) drops every 5th
		// reply.
		2: {BeforeReply: func(task Task, res Result) bool {
			mu.Lock()
			defer mu.Unlock()
			if task.ID%5 == 0 {
				dropped++
				return false
			}
			return true
		}},
	}
	out, err := Run(cfg, RunOptions{
		Transport:   Local,
		Workers:     3,
		WorkerHooks: hooks,
		Foreman:     ForemanOptions{TaskTimeout: 150 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	nd := dropped
	mu.Unlock()
	if nd == 0 {
		t.Fatal("fault injection never triggered")
	}
	par := out.Results[0]
	if par.BestNewick != serial.BestNewick || par.LnL != serial.LnL {
		t.Errorf("fault-tolerant run diverged from serial (dropped %d replies)", nd)
	}
}

// TestLocalRunFinishesInlineWhenNoWorkerAnswers: the ladder's last rung
// is the foreman's on every transport. A Local run whose every worker
// drops every result loses them all to the task timeout, and the foreman
// then evaluates the search itself — to the serial answer.
func TestLocalRunFinishesInlineWhenNoWorkerAnswers(t *testing.T) {
	cfg := testConfig(t, 6, 120, 31)
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drop := WorkerHooks{BeforeReply: func(Task, Result) bool { return false }}
	var out *RunOutcome
	done := make(chan struct{})
	go func() {
		defer close(done)
		out, err = Run(cfg, RunOptions{
			Transport:   Local,
			Workers:     2,
			Obs:         NewRunObserver(nil, nil),
			Foreman:     ForemanOptions{TaskTimeout: 50 * time.Millisecond},
			WorkerHooks: map[int]WorkerHooks{2: drop, 3: drop},
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("no result 10 s into a run whose workers drop every reply")
	}
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results[0]
	if res.BestNewick != serial.BestNewick || res.LnL != serial.LnL {
		t.Errorf("inline run diverged from serial: %g vs %g", res.LnL, serial.LnL)
	}
	if out.Monitor.Inline == 0 {
		t.Error("observer counted no inline evaluation")
	}
}

// TestFaultToleranceSlowWorker drives the foreman protocol directly with
// scripted workers: a worker that delays past the timeout is removed, its
// tree re-dispatched, and when its late reply finally arrives it is
// reinstated and used again (paper §2.2). The observer must record both
// transitions.
func TestFaultToleranceSlowWorker(t *testing.T) {
	// Ranks: 0 master, 1 foreman, 2 slow worker, 3 worker.
	world := newTestWorld(t, 4)
	lay := Layout{Workers: []int{2, 3}}

	var wg sync.WaitGroup

	// Every event of a round is recorded before the round is answered.
	observer := NewRunObserver(nil, nil)

	// Scripted workers: respond to any task with a canned result; rank 2
	// sleeps through its first task.
	fakeWorker := func(rank int, delayFirst time.Duration) {
		defer wg.Done()
		first := true
		for {
			msg, err := world[rank].Recv(comm.AnySource, comm.AnyTag)
			if err != nil {
				return
			}
			if msg.Tag == comm.TagShutdown {
				// Real workers ack shutdown so the foreman's drain can
				// finish promptly; the scripted ones must too.
				_ = world[rank].Send(1, comm.TagShutdown, nil)
				return
			}
			task, err := UnmarshalTask(msg.Data)
			if err != nil {
				t.Error(err)
				return
			}
			if first && delayFirst > 0 {
				time.Sleep(delayFirst)
			}
			first = false
			res := Result{TaskID: task.ID, Round: task.Round, Job: task.Job, LnL: -float64(task.ID), Ops: 10}
			if err := world[rank].Send(1, comm.TagResult, MarshalResult(res)); err != nil {
				return
			}
		}
	}
	wg.Add(2)
	go fakeWorker(2, 250*time.Millisecond)
	go fakeWorker(3, 0)

	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{TaskTimeout: 80 * time.Millisecond}, observer)
	// Round 1: two tasks. Worker 2 gets one and stalls past the timeout;
	// worker 3 finishes both.
	tasks := []Task{{ID: 1, Round: 1}, {ID: 2, Round: 1}}
	results, err := disp.Dispatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	// Wait for the late reply to land in the foreman's mailbox, then run
	// another round so the foreman processes it and reinstates rank 2.
	time.Sleep(300 * time.Millisecond)
	if _, err := disp.Dispatch([]Task{{ID: 3, Round: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	snap := observer.Snapshot()
	if snap.Timeouts == 0 {
		t.Error("observer recorded no worker removal")
	}
	if snap.Reinstates == 0 {
		t.Error("observer recorded no worker reinstatement")
	}
}

// TestMultipleJumbles: several random orderings complete and report
// distinct orders; the best-of-jumbles tree is well-formed.
func TestMultipleJumbles(t *testing.T) {
	cfg := testConfig(t, 6, 120, 23)
	out, err := Run(cfg, RunOptions{Transport: Local, Workers: 2, Jumbles: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	ordersDiffer := false
	for j := 1; j < 3; j++ {
		for i := range out.Results[0].Order {
			if out.Results[j].Order[i] != out.Results[0].Order[i] {
				ordersDiffer = true
			}
		}
	}
	if !ordersDiffer {
		t.Error("jumbles used identical taxon orders")
	}
}
