package mlsearch

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// The monitor (paper §2.2): "an optional process that provides
// instrumentation for the program". Here it is two subscribers of the
// run's event bus — stats aggregation and line printing — fed by the one
// typed event the foreman's RunObserver publishes at each site. It runs
// on the foreman's goroutine, in the foreman's process, and sees exactly
// what any other subscriber (a test assertion, the /status snapshot, a
// future remote exporter) sees.

// MonitorStats aggregates a run's instrumentation.
type MonitorStats struct {
	// Rounds is the number of completed rounds.
	Rounds int
	// Dispatches counts task sends to workers.
	Dispatches int
	// Results counts results received from workers.
	Results int
	// TasksPerWorker counts results per worker rank.
	TasksPerWorker map[int]int
	// Deaths counts fault tolerance removals per worker rank.
	Deaths map[int]int
	// Revivals counts delinquent workers welcomed back per rank.
	Revivals map[int]int
	// Joins counts workers that joined the world at runtime.
	Joins int
	// Leaves counts workers whose connection dropped.
	Leaves int
	// Inline counts tasks the foreman evaluated itself because no live
	// workers remained.
	Inline int
}

func newMonitorStats() *MonitorStats {
	return &MonitorStats{
		TasksPerWorker: map[int]int{},
		Deaths:         map[int]int{},
		Revivals:       map[int]int{},
	}
}

// AttachMonitorStats subscribes stats aggregation to a bus and returns
// the unsubscribe function. The stats are written on the publisher's
// goroutine: read them once it has stopped.
func AttachMonitorStats(bus *obs.Bus, stats *MonitorStats) func() {
	return bus.Subscribe(func(e any) {
		switch ev := e.(type) {
		case TaskDispatched:
			stats.Dispatches++
		case TaskCompleted:
			stats.Results++
			stats.TasksPerWorker[ev.Worker]++
		case WorkerTimedOut:
			stats.Deaths[ev.Worker]++
		case WorkerReinstated:
			stats.Revivals[ev.Worker]++
		case WorkerJoined:
			stats.Joins++
		case WorkerLeft:
			stats.Leaves++
		case InlineEvaluated:
			stats.Inline++
		case RoundCompleted:
			stats.Rounds++
		}
	})
}

// attachMonitorLog subscribes the line printer. Lines go through a
// LockedWriter as single Write calls, so concurrent writers sharing the
// underlying stream (the master's progress output, another goroutine's
// log) cannot interleave within a line.
func attachMonitorLog(bus *obs.Bus, out *obs.LockedWriter) func() {
	// jobTag renders a job qualifier; single-job runs (job 0) keep the
	// historical unqualified lines.
	jobTag := func(job uint64) string {
		if job == 0 {
			return ""
		}
		return fmt.Sprintf("job %d ", job)
	}
	return bus.Subscribe(func(e any) {
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
}

// monitor is the role as a world hosts it: the two subscriptions, open
// from the world's start to its shutdown.
type monitor struct {
	stats  *MonitorStats
	out    *obs.LockedWriter
	detach []func()
}

// attachMonitor subscribes the monitor to a bus, writing its lines to w
// (nil discards them).
func attachMonitor(bus *obs.Bus, w io.Writer) *monitor {
	m := &monitor{stats: newMonitorStats(), out: obs.NewLockedWriter(w)}
	m.detach = []func(){AttachMonitorStats(bus, m.stats), attachMonitorLog(bus, m.out)}
	return m
}

// close unsubscribes the monitor and prints its closing line. Call it
// once the foreman has stopped.
func (m *monitor) close() *MonitorStats {
	for _, detach := range m.detach {
		detach()
	}
	fmt.Fprintf(m.out, "monitor: shutdown after %d rounds, %d results\n", m.stats.Rounds, m.stats.Results)
	return m.stats
}
