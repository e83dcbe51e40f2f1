package mlsearch

import (
	"fmt"

	"repro/internal/comm"
)

// The master (paper §2.2): "generates and compares trees. It generates
// new tree topologies (in steps 2-5) and sends these trees to the
// foreman. It receives back from the foreman the best tree at the end of
// each round of comparison." Search does the generating and comparing;
// this file is the sending and receiving.
//
// Master and foreman share a process, so a round crosses between them as
// Go values. Several Search instances (jumbles, bootstrap replicates) run
// concurrently as goroutines, each driving its own job lane. A lane puts
// its round — the tasks and a reply channel — in the foreman's inbox,
// wakes the foreman's receive loop with an empty TagControl message, and
// blocks on the channel until the foreman sends the round's results or
// the reason there will be none. The reply channel is the lane's own, so
// no reply can reach another lane and an idle lane holds no resources.

// dispatcherSource mints per-search dispatchers; it is how runJumbles
// gives each concurrent search its own job lane without knowing the
// transport.
type dispatcherSource interface {
	NewDispatcher() (Dispatcher, error)
}

// fixedSource hands every search the same dispatcher — the serial path,
// where searches never overlap.
type fixedSource struct{ d Dispatcher }

func (s fixedSource) NewDispatcher() (Dispatcher, error) { return s.d, nil }

// submission is one round on its way from a job lane to the foreman.
type submission struct {
	job, round uint64
	tasks      []Task
	// reply is 1-buffered: the foreman answers every submission exactly
	// once and never blocks doing so.
	reply chan roundReply
}

// roundReply is the foreman's answer: every task's result sorted by task
// ID (for a round a candidate failed: what had arrived, that one
// included), or why the foreman cannot answer.
type roundReply struct {
	results []Result
	err     error
}

// NewDispatcher implements dispatcherSource: each call opens a fresh job
// lane (ids start at 1; 0 is a task no lane has stamped).
func (f *Foreman) NewDispatcher() (Dispatcher, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped != nil {
		return nil, f.stopped
	}
	f.nextJob++
	return &JobDispatcher{f: f, job: f.nextJob}, nil
}

// Shutdown tells the foreman to stop, which cascades to the workers. Call
// it once all searches have finished; dispatches after it fail.
func (f *Foreman) Shutdown() error {
	return f.c.Send(f.c.Rank(), comm.TagShutdown, nil)
}

// submit hands the foreman one round and blocks until it is answered.
func (f *Foreman) submit(job, round uint64, tasks []Task) ([]Result, error) {
	sub := &submission{job: job, round: round, tasks: tasks, reply: make(chan roundReply, 1)}
	f.mu.Lock()
	if f.stopped != nil {
		f.mu.Unlock()
		return nil, f.stopped
	}
	f.inbox = append(f.inbox, sub)
	f.mu.Unlock()
	// The wake-up travels on the foreman's own endpoint, to itself. It can
	// only fail because that endpoint is closed, which also ends the
	// foreman's loop — and a loop that ends answers its whole inbox.
	_ = f.c.Send(f.c.Rank(), comm.TagControl, nil)
	r := <-sub.reply
	return r.results, r.err
}

// JobDispatcher is one search's lane to the foreman: the Dispatcher of
// the parallel runtime. Rounds are numbered per lane, and every task is
// stamped with the lane's job id.
type JobDispatcher struct {
	f     *Foreman
	job   uint64
	round uint64
}

// Job returns the lane's job id.
func (d *JobDispatcher) Job() uint64 { return d.job }

// Dispatch implements Dispatcher: one round to the foreman, its results
// back. A candidate whose evaluation failed fails the round with its
// cause; the lane, the foreman and the workers remain usable.
func (d *JobDispatcher) Dispatch(tasks []Task) ([]Result, error) {
	d.round++
	for i := range tasks {
		tasks[i].Job = d.job
	}
	results, err := d.f.submit(d.job, d.round, tasks)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != "" {
			return nil, fmt.Errorf("mlsearch: job %d: evaluating task %d on worker %d: %s", d.job, r.TaskID, r.Worker, r.Err)
		}
	}
	return results, nil
}
