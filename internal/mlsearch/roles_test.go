package mlsearch

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Master, foreman and monitor share a process and exchange Go values
// (jobs.go, monitor.go). These tests pin what the wire between them used
// to be relied on for — every lane gets its own replies — and the two
// failure scopes the shared memory makes easy to keep: a worker's bad
// bytes cost the fleet that worker, and a foreman that has stopped is an
// error at the caller.

// dispatchOutcome is what a Dispatch returned; dispatchAsync runs one
// where the test can bound its wait for it.
type dispatchOutcome struct {
	results []Result
	err     error
}

func dispatchAsync(d Dispatcher, tasks []Task) <-chan dispatchOutcome {
	ch := make(chan dispatchOutcome, 1)
	go func() {
		res, err := d.Dispatch(tasks)
		ch <- dispatchOutcome{res, err}
	}()
	return ch
}

func awaitDispatch(t *testing.T, what string, ch <-chan dispatchOutcome) dispatchOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: Dispatch still blocked after 10s", what)
		return dispatchOutcome{}
	}
}

// TestGarbageResultCondemnsWorkerNotForeman: a worker that answers a
// slice with bytes that do not decode is handled as a departure — its
// slice goes back to the head of the queue, WorkerLeft is published —
// and the round completes on the other worker. At the parent the frame
// ended RunForeman and Dispatch waited forever.
func TestGarbageResultCondemnsWorkerNotForeman(t *testing.T) {
	// Ranks: 0 master, 1 foreman, 2 the offender, 3 the honest worker.
	world := newTestWorld(t, 4)
	lay := Layout{Master: 0, Foreman: 1, Workers: []int{2, 3}}
	bus := obs.NewBus()
	var left []int
	obs.SubscribeTo(bus, func(e WorkerLeft) { left = append(left, e.Worker) })

	var wg sync.WaitGroup
	wg.Add(2)
	var lost []uint64
	garbled := make(chan struct{})
	go func() {
		defer wg.Done()
		scriptedWorker(t, world[2], 1, func(slice []Task) ([]Result, bool) {
			lost = taskIDs(slice)
			if err := world[2].Send(1, comm.TagResult, []byte{1, 2, 3}); err != nil {
				t.Error(err)
			}
			close(garbled)
			return nil, true
		})
	}()
	var served [][]uint64
	go func() {
		defer wg.Done()
		scriptedWorker(t, world[3], 1, func(slice []Task) ([]Result, bool) {
			if len(served) == 0 {
				// Hold the first slice until the offender's frame is out
				// and the foreman has had time to read it.
				<-garbled
				time.Sleep(20 * time.Millisecond)
			}
			served = append(served, taskIDs(slice))
			return cannedResults(slice), false
		})
	}()

	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{Pipeline: 1, Obs: NewRunObserver(nil, bus)})
	tasks := sliceOf(24, 0, 1, "(a,b,c);")
	o := awaitDispatch(t, "round with a garbage reply in it", dispatchAsync(disp, tasks))
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if len(o.results) != len(tasks) {
		t.Fatalf("%d results for %d tasks", len(o.results), len(tasks))
	}
	for _, r := range o.results {
		if r.Worker != 3 {
			t.Errorf("task %d answered by worker %d, want the honest worker 3", r.TaskID, r.Worker)
		}
	}
	if !reflect.DeepEqual(left, []int{2}) {
		t.Errorf("WorkerLeft published for %v, want [2]", left)
	}
	// Two workers: the offender's slice is ⌈24/4⌉ = 6 candidates, and like
	// a departed worker's it heads the queue for the survivor's next cut.
	if len(lost) != 6 || len(served) < 2 || len(served[1]) == 0 || served[1][0] != lost[0] {
		t.Errorf("the offender held %v; the survivor was then served %v, want its second slice to start with %d", lost, served, lost[0])
	}
}

// TestDeadForemanFailsDispatch: when the foreman's loop returns — here
// because its endpoint is closed mid-round — the open round's Dispatch
// returns the cause, and the lane and the foreman refuse later work at
// once. At the parent nothing closed the mailbox the master waited on.
func TestDeadForemanFailsDispatch(t *testing.T) {
	world := newTestWorld(t, 3)
	lay := Layout{Master: 0, Foreman: 1, Workers: []int{2}}
	f, err := NewForeman(world[1], lay, ForemanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- f.Run() }()

	// The worker takes its slice and never answers.
	holding := make(chan struct{})
	go scriptedWorker(t, world[2], 1, func([]Task) ([]Result, bool) {
		close(holding)
		return nil, true
	})

	disp, err := f.NewDispatcher()
	if err != nil {
		t.Fatal(err)
	}
	open := dispatchAsync(disp, sliceOf(4, 0, 1, "(a,b,c);"))
	<-holding
	world[1].Close()

	if o := awaitDispatch(t, "round open when the foreman died", open); !errors.Is(o.err, comm.ErrClosed) {
		t.Errorf("Dispatch returned %d results and error %v, want the closed endpoint as the cause", len(o.results), o.err)
	}
	select {
	case err := <-runErr:
		if !errors.Is(err, comm.ErrClosed) {
			t.Errorf("Run returned %v, want the closed endpoint", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still going after its endpoint was closed")
	}
	if o := awaitDispatch(t, "next round of the same lane", dispatchAsync(disp, sliceOf(4, 0, 2, "(a,b,c);"))); !errors.Is(o.err, comm.ErrClosed) {
		t.Errorf("a round submitted to a dead foreman: error %v, want the closed endpoint", o.err)
	}
	if _, err := f.NewDispatcher(); !errors.Is(err, comm.ErrClosed) {
		t.Errorf("a lane opened on a dead foreman: error %v, want the closed endpoint", err)
	}
}

// TestMonitorLineNamesRequeuedTask: the monitor prints what the foreman
// published, so a worker removed because a send to it failed is reported
// with the head of the slice that was requeued. At the parent the line
// was re-parsed from "send failed" and said task 0.
func TestMonitorLineNamesRequeuedTask(t *testing.T) {
	// Ranks: 0 master, 1 foreman, 2 a worker gone before its first slice,
	// 3 a worker.
	world := newTestWorld(t, 4)
	lay := Layout{Master: 0, Foreman: 1, Workers: []int{2, 3}}
	world[2].Close()
	bus := obs.NewBus()
	var lines bytes.Buffer
	mon := attachMonitor(bus, &lines)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scriptedWorker(t, world[3], 1, func(slice []Task) ([]Result, bool) { return cannedResults(slice), false })
	}()
	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{Obs: NewRunObserver(nil, bus)})
	tasks := sliceOf(8, 0, 1, "(a,b,c);")
	if o := awaitDispatch(t, "round with an unroutable worker", dispatchAsync(disp, tasks)); o.err != nil || len(o.results) != len(tasks) {
		t.Fatalf("%d results, error %v", len(o.results), o.err)
	}
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	stats := mon.close()

	want := fmt.Sprintf("monitor: worker 2 removed (job 1 task %d requeued)\n", tasks[0].ID)
	if !strings.Contains(lines.String(), want) {
		t.Errorf("monitor printed\n%swant a line\n%s", lines.String(), want)
	}
	if stats.Deaths[2] != 1 || stats.Results != len(tasks) || stats.Rounds != 1 {
		t.Errorf("monitor stats %+v, want one removal of worker 2, %d results, 1 round", stats, len(tasks))
	}
}

// TestLanesGetTheirOwnReplies: many searches dispatching at once through
// one foreman each get exactly their own round back — every task of it,
// in task-ID order, and nothing of a neighbour's, whose task IDs are the
// same numbers.
func TestLanesGetTheirOwnReplies(t *testing.T) {
	const lanes, rounds = 8, 50
	world := newTestWorld(t, 5)
	lay := Layout{Master: 0, Foreman: 1, Workers: []int{2, 3, 4}}
	score := func(job, round, id uint64) float64 { return -float64(job*1_000_000 + round*1_000 + id) }
	var workers sync.WaitGroup
	for _, rank := range lay.Workers {
		workers.Add(1)
		go func(rank int) {
			defer workers.Done()
			scriptedWorker(t, world[rank], 1, func(slice []Task) ([]Result, bool) {
				out := cannedResults(slice)
				for i, task := range slice {
					out[i].LnL = score(task.Job, task.Round, task.ID)
				}
				return out, false
			})
		}(rank)
	}
	foreman, _ := newTestMaster(t, world, lay, ForemanOptions{})

	var searches sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		disp, err := foreman.NewDispatcher()
		if err != nil {
			t.Fatal(err)
		}
		searches.Add(1)
		go func(lane int, disp Dispatcher) {
			defer searches.Done()
			job := disp.(*JobDispatcher).Job()
			for round := uint64(1); round <= rounds; round++ {
				tasks := sliceOf(3+lane, 0, round, fmt.Sprintf("(a,b,lane%d);", lane))
				results, err := disp.Dispatch(tasks)
				if err != nil {
					t.Errorf("lane %d round %d: %v", lane, round, err)
					return
				}
				if len(results) != len(tasks) {
					t.Errorf("lane %d round %d: %d results for %d tasks", lane, round, len(results), len(tasks))
					return
				}
				for i, r := range results {
					if r.TaskID != tasks[i].ID || r.Job != job || r.Round != round || r.LnL != score(job, round, r.TaskID) {
						t.Errorf("lane %d (job %d) round %d, position %d: got %+v, want task %d of its own round", lane, job, round, i, r, tasks[i].ID)
						return
					}
				}
			}
		}(lane, disp)
	}
	searches.Wait()
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	workers.Wait()
}
