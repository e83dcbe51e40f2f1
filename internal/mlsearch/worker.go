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
	// BeforeReply, when non-nil, runs after evaluation and before the
	// result is sent. Returning false drops the reply (simulating a
	// crashed or stalled worker); the foreman's timeout machinery must
	// then recover.
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

// RunWorker executes the worker loop: receive a task from the foreman,
// evaluate it with the run's configuration, send the result back, until
// a shutdown message arrives.
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
			task, err := UnmarshalTask(msg.Data)
			if err != nil {
				return err
			}
			comm.PutBuf(msg.Data) // decoded (strings copied); recycle
			res, err := ev.Evaluate(task)
			if err != nil {
				return fmt.Errorf("mlsearch: worker %d: %w", c.Rank(), err)
			}
			res.Worker = int32(c.Rank())
			hooks.Obs.Served(res)
			hooks.Obs.Engine(likelihood.EngineThreads(ev.eng), likelihood.StatsOf(ev.eng).ShardDispatches)
			if hooks.BeforeReply != nil && !hooks.BeforeReply(task, res) {
				continue
			}
			buf := MarshalResult(res)
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
