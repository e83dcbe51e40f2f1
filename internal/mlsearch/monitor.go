package mlsearch

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// The monitor (paper §2.2): "an optional process that provides
// instrumentation for the program". Here it is a view of the run's
// RunObserver: a line printer subscribed to the observer's event bus,
// and a closing line read from the observer's snapshot. It keeps no
// counts of its own. It runs on the foreman's goroutine, in the foreman's
// process, and sees exactly what any other subscriber (a test assertion,
// a future remote exporter) sees.

// attachMonitor subscribes the line printer to a bus, writing to w, and
// returns the function that unsubscribes it and prints the closing line
// from the run's final snapshot. Lines go through a LockedWriter as
// single Write calls, so concurrent writers sharing the underlying
// stream (the master's progress output, another goroutine's log) cannot
// interleave within a line.
func attachMonitor(bus *obs.Bus, w io.Writer) func(RunSnapshot) {
	out := obs.NewLockedWriter(w)
	// jobTag renders a job qualifier; single-job runs (job 0) keep the
	// historical unqualified lines.
	jobTag := func(job uint64) string {
		if job == 0 {
			return ""
		}
		return fmt.Sprintf("job %d ", job)
	}
	detach := bus.Subscribe(func(e any) {
		switch ev := e.(type) {
		case WorkerTimedOut:
			fmt.Fprintf(out, "monitor: worker %d removed (%stask %d requeued)\n", ev.Worker, jobTag(ev.Job), ev.TaskID)
		case WorkerReinstated:
			fmt.Fprintf(out, "monitor: worker %d reinstated\n", ev.Worker)
		case WorkerJoined:
			fmt.Fprintf(out, "monitor: worker %d joined\n", ev.Worker)
		case WorkerLeft:
			fmt.Fprintf(out, "monitor: worker %d left\n", ev.Worker)
		case InlineEvaluated:
			fmt.Fprintf(out, "monitor: foreman evaluated inline (%stask %d lnl=%.4f)\n", jobTag(ev.Job), ev.TaskID, ev.LnL)
		}
	})
	return func(s RunSnapshot) {
		detach()
		fmt.Fprintf(out, "monitor: shutdown after %d rounds, %d results\n", s.Rounds, s.Completed)
	}
}
