package mlsearch

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
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

// TestParallelWithMonitor: the instrumented run reports dispatch counts
// consistent with the search — and, being a subscriber of the same bus,
// the same counts as the run's observer.
func TestParallelWithMonitor(t *testing.T) {
	cfg := testConfig(t, 7, 150, 13)
	var buf bytes.Buffer
	observer := NewRunObserver(nil, nil)
	out, err := Run(cfg, RunOptions{
		Transport:   Local,
		Workers:     3,
		WithMonitor: true,
		MonitorOut:  &buf,
		Obs:         observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Monitor == nil {
		t.Fatal("no monitor stats")
	}
	res := out.Results[0]
	if out.Monitor.Results != res.TotalTasks {
		t.Errorf("monitor saw %d results, search dispatched %d tasks", out.Monitor.Results, res.TotalTasks)
	}
	if out.Monitor.Dispatches < res.TotalTasks {
		t.Errorf("monitor saw %d dispatches < %d tasks", out.Monitor.Dispatches, res.TotalTasks)
	}
	// All three workers should have contributed.
	if len(out.Monitor.TasksPerWorker) != 3 {
		t.Errorf("work spread over %d workers, want 3 (%v)", len(out.Monitor.TasksPerWorker), out.Monitor.TasksPerWorker)
	}
	// One lane, so the snapshot's current round is the count of rounds.
	snap, mon := observer.Snapshot(), out.Monitor
	if got, want := [6]int{mon.Rounds, mon.Results, mon.Dispatches, mon.Inline, mon.Joins, mon.Leaves},
		[6]int{int(snap.Round), snap.Completed, snap.Dispatched, snap.Inline, snap.Joins, snap.Leaves}; got != want {
		t.Errorf("monitor rounds/results/dispatches/inline/joins/leaves %v, the observer's %v", got, want)
	}
	if want := fmt.Sprintf("monitor: shutdown after %d rounds, %d results\n", mon.Rounds, mon.Results); !strings.HasSuffix(buf.String(), want) {
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
		Foreman:     ForemanOptions{TaskTimeout: 150 * time.Millisecond, Tick: 20 * time.Millisecond},
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

// TestFaultToleranceSlowWorker drives the foreman protocol directly with
// scripted workers: a worker that delays past the timeout is removed, its
// tree re-dispatched, and when its late reply finally arrives it is
// reinstated and used again (paper §2.2). The monitor must record both
// transitions.
func TestFaultToleranceSlowWorker(t *testing.T) {
	// Ranks: 0 master, 1 foreman, 2 slow worker, 3 worker.
	world := newTestWorld(t, 4)
	lay := Layout{Master: 0, Foreman: 1, Workers: []int{2, 3}}

	var wg sync.WaitGroup

	// The monitor's stats, fed by the foreman's bus; every event of a
	// round is published before the round is answered.
	bus := obs.NewBus()
	monStats := newMonitorStats()
	AttachMonitorStats(bus, monStats)

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
			res := Result{TaskID: task.ID, Round: task.Round, Job: task.Job, Newick: task.Newick, LnL: -float64(task.ID), Ops: 10}
			if err := world[rank].Send(1, comm.TagResult, MarshalResult(res)); err != nil {
				return
			}
		}
	}
	wg.Add(2)
	go fakeWorker(2, 250*time.Millisecond)
	go fakeWorker(3, 0)

	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{
		TaskTimeout: 80 * time.Millisecond,
		Tick:        10 * time.Millisecond,
		Obs:         NewRunObserver(nil, bus),
	})
	// Round 1: two tasks. Worker 2 gets one and stalls past the timeout;
	// worker 3 finishes both.
	tasks := []Task{{ID: 1, Round: 1, Newick: "x"}, {ID: 2, Round: 1, Newick: "y"}}
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
	if _, err := disp.Dispatch([]Task{{ID: 3, Round: 2, Newick: "z"}}); err != nil {
		t.Fatal(err)
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	deaths, revivals := 0, 0
	for _, d := range monStats.Deaths {
		deaths += d
	}
	for _, r := range monStats.Revivals {
		revivals += r
	}
	if deaths == 0 {
		t.Error("monitor recorded no worker removal")
	}
	if revivals == 0 {
		t.Error("monitor recorded no worker reinstatement")
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

// TestForemanValidation: a foreman over a layout that does not validate
// is rejected.
func TestForemanValidation(t *testing.T) {
	world := newTestWorld(t, 3)
	if _, err := NewForeman(world[1], Layout{Master: 0, Foreman: 0, Workers: []int{2}}, ForemanOptions{}); err == nil {
		t.Error("foreman over an overlapping layout accepted")
	}
	if _, err := NewForeman(world[1], Layout{Master: 0, Foreman: 1, Workers: []int{2}}, ForemanOptions{}); err != nil {
		t.Error(err)
	}
}
