package mlsearch

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/likelihood"
)

// The worker (paper §2.2): "worker processes that, in parallel, calculate
// branch lengths for a tree topology and the likelihood value for the
// tree. The worker processes communicate only with the foreman process."

// WorkerHooks allow tests (and the fault injection example) to perturb a
// worker's behaviour.
type WorkerHooks struct {
	// BeforeReply, when non-nil, runs right after each task's evaluation,
	// before the next task of the slice starts. Returning false drops
	// that task's result from the reply (simulating a crashed or stalled
	// worker); the foreman must then recover it.
	BeforeReply func(task Task, result Result) bool
	// OnAttach, when non-nil, receives the worker's communicator right
	// after it connects and learns its rank. The chaos tests use it to
	// sever a live connection from outside (simulating a SIGKILL).
	OnAttach func(c comm.Communicator)
	// Obs, when non-nil, receives the worker's serve-loop
	// instrumentation: tasks served, evaluation latency, engine cache and
	// kernel counters, reconnects.
	Obs *WorkerObserver
	// Threads, when positive, replaces the run's kernel thread count on
	// this worker. It is a host setting: sharding is deterministic, so a
	// threaded worker returns bit-identical results to a serial one.
	Threads int
	// Engine, when non-empty, replaces the run's likelihood backend on
	// this worker — the seam tests and the benchmark use to wrap the
	// engine in a decorator. It must evaluate exactly like the run's.
	Engine string
}

// workerConfig is the one inheritance rule: a worker evaluates with the
// run's Config, and only the two hook fields above may replace a value.
func (h WorkerHooks) workerConfig(run Config) Config {
	if h.Threads > 0 {
		run.Threads = h.Threads
	}
	if h.Engine != "" {
		run.Engine = h.Engine
	}
	return run
}

// failedResult is the answer to a task whose evaluation failed: the
// identifiers and the cause. The error is the task's, not the
// evaluator's — the same task fails the same way anywhere — so whoever
// evaluated it reports it and carries on.
func failedResult(t Task, err error) Result {
	return Result{TaskID: t.ID, Round: t.Round, Job: t.Job, Trace: t.Trace, Err: err.Error()}
}

// RunWorker executes the worker loop: receive a slice of tasks from the
// foreman, evaluate them in order with the run's configuration — parsing
// the base tree they share once — and send the results back in one
// reply, until a shutdown message arrives.
func RunWorker(c comm.Communicator, lay Layout, run Config, hooks WorkerHooks) error {
	ev, err := NewConfigEvaluator(hooks.workerConfig(run))
	if err != nil {
		return err
	}
	defer ev.Close()
	hooks.Obs.Attached(c.Rank())
	for {
		msg, err := c.Recv(comm.AnySource, comm.AnyTag)
		if err != nil {
			return fmt.Errorf("mlsearch: worker %d receive: %w", c.Rank(), err)
		}
		switch msg.Tag {
		case comm.TagShutdown:
			// Acknowledge so the foreman knows the shutdown was delivered
			// before the transport is torn down. Best effort: the route
			// may already be gone.
			_ = c.Send(lay.Foreman, comm.TagShutdown, nil)
			return nil
		case comm.TagTask:
			tasks, err := unmarshalTasks(msg.Data)
			if err != nil {
				return err
			}
			comm.PutBuf(msg.Data) // decoded (strings copied); recycle
			results := make([]Result, 0, len(tasks))
			for _, task := range tasks {
				res, err := ev.Evaluate(task)
				if err != nil {
					res = failedResult(task, err)
				}
				res.Worker = int32(c.Rank())
				hooks.Obs.Served(res)
				hooks.Obs.Engine(likelihood.EngineThreads(ev.eng), likelihood.StatsOf(ev.eng).ShardDispatches)
				if hooks.BeforeReply == nil || hooks.BeforeReply(task, res) {
					results = append(results, res)
				}
			}
			if len(results) == 0 {
				continue
			}
			buf := marshalResults(results)
			err = c.Send(lay.Foreman, comm.TagResult, buf)
			comm.PutBuf(buf)
			if err != nil {
				return fmt.Errorf("mlsearch: worker %d send: %w", c.Rank(), err)
			}
		default:
			return fmt.Errorf("mlsearch: worker %d got unexpected tag %d", c.Rank(), msg.Tag)
		}
	}
}
