package mlsearch

import (
	"bytes"
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

// TestParallelWithMonitor: the instrumented run (paper's 4-processor
// minimum) reports dispatch counts consistent with the search.
func TestParallelWithMonitor(t *testing.T) {
	cfg := testConfig(t, 7, 150, 13)
	var buf bytes.Buffer
	out, err := Run(cfg, RunOptions{
		Transport:   Local,
		Workers:     3,
		WithMonitor: true,
		MonitorOut:  &buf,
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
		// Worker rank 2 (first worker without monitor) drops every 5th
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
	// Ranks: 0 master, 1 foreman, 2 monitor, 3 slow worker, 4 worker.
	world := newTestWorld(t, 5)
	lay := Layout{Master: 0, Foreman: 1, Monitor: 2, Workers: []int{3, 4}}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := RunForeman(world[1], lay, ForemanOptions{
			TaskTimeout: 80 * time.Millisecond,
			Tick:        10 * time.Millisecond,
		}); err != nil {
			t.Error(err)
		}
	}()

	var monStats *MonitorStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := RunMonitor(world[2], nil, false)
		if err != nil {
			t.Error(err)
		}
		monStats = s
	}()

	// Scripted workers: respond to any task with a canned result; rank 3
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
	go fakeWorker(3, 250*time.Millisecond)
	go fakeWorker(4, 0)

	mux, disp := newTestMaster(t, world, lay)
	// Round 1: two tasks. Worker 3 gets one and stalls past the timeout;
	// worker 4 finishes both.
	tasks := []Task{{ID: 1, Round: 1, Newick: "x"}, {ID: 2, Round: 1, Newick: "y"}}
	results, err := disp.Dispatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	// Wait for the late reply to land in the foreman's mailbox, then run
	// another round so the foreman processes it and reinstates rank 3.
	time.Sleep(300 * time.Millisecond)
	if _, err := disp.Dispatch([]Task{{ID: 3, Round: 2, Newick: "z"}}); err != nil {
		t.Fatal(err)
	}
	if err := mux.Shutdown(); err != nil {
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

// TestJobMuxValidation: constructing the master side on the wrong rank,
// or over a layout that does not validate, is rejected.
func TestJobMuxValidation(t *testing.T) {
	lay := Layout{Master: 0, Foreman: 1, Monitor: -1, Workers: []int{2}}
	world := newTestWorld(t, 3)
	if _, err := NewJobMux(world[1], lay); err == nil {
		t.Error("job mux on non-master rank accepted")
	}
	if _, err := NewJobMux(world[0], Layout{Master: 0, Foreman: 0, Monitor: -1, Workers: []int{2}}); err == nil {
		t.Error("job mux over an overlapping layout accepted")
	}
	if _, err := NewJobMux(world[0], lay); err != nil {
		t.Error(err)
	}
}
