// Package spsim is a deterministic discrete-event simulator of the
// paper's parallel runtime on an IBM RS/6000 SP-like cluster. It replays
// the fastDNAml dispatch discipline — a master generating candidate
// trees, a foreman feeding a pool of workers one tree at a time and
// collecting results, a loose barrier at the end of every round when the
// best tree is determined — over a log of rounds and per-task costs, for
// any processor count.
//
// This is the substitution for the paper's 64-processor Power3+ testbed
// (DESIGN.md §2): this reproduction runs on machines where 64-way wall
// clock measurements are impossible, but the *shape* of Figures 3 and 4
// is produced by the schedule structure the simulator models exactly —
// three processors dedicated to master/foreman/monitor (making 4
// processors slower than serial), near-linear scaling from 16 to 64, and
// the fall-off at 100-200 processors when round task counts approach the
// worker count (paper §3.2).
package spsim

import (
	"container/heap"
	"fmt"

	"repro/internal/mlsearch"
)

// Round is one dispatch round: the tasks the master generated and the
// serial bytes it produced while generating them.
type Round struct {
	// Kind labels the round ("add", "rearrange", ...), informational.
	Kind string
	// TaskUnits holds each task's cost in likelihood work units.
	TaskUnits []float64
	// GenBytes is the size of the candidate topologies the master
	// serialized (drives the master's serial time).
	GenBytes float64
	// SpeculativeNext marks a round whose outcome does not change the
	// following round's task list — a rearrangement round that finds no
	// better tree. A speculating master (Ceron's feature, §3.2) can
	// generate and dispatch the next round's trees without waiting for
	// this round's barrier.
	SpeculativeNext bool
}

// RunLog is the full schedule of a search: what the simulator replays.
type RunLog struct {
	// Rounds in execution order.
	Rounds []Round
	// Label describes the workload ("50taxa measured", ...).
	Label string
}

// TotalUnits sums every task's work units.
func (l *RunLog) TotalUnits() float64 {
	t := 0.0
	for _, r := range l.Rounds {
		for _, u := range r.TaskUnits {
			t += u
		}
	}
	return t
}

// TotalTasks counts the tasks.
func (l *RunLog) TotalTasks() int {
	n := 0
	for _, r := range l.Rounds {
		n += len(r.TaskUnits)
	}
	return n
}

// FromSearchResult converts a measured search's round log into a
// simulator RunLog (units = the engine's operation counters).
func FromSearchResult(res *mlsearch.SearchResult, label string) *RunLog {
	out := &RunLog{Label: label}
	for _, r := range res.Rounds {
		round := Round{Kind: r.Kind.String(), GenBytes: float64(r.GenBytes)}
		for _, t := range r.Tasks {
			round.TaskUnits = append(round.TaskUnits, float64(t.Ops))
		}
		out.Rounds = append(out.Rounds, round)
	}
	return out
}

// Cluster models the machine.
type Cluster struct {
	// Processors is the total processor count P. P = 1 simulates the
	// serial program (no control processors, no message costs).
	Processors int
	// Monitor dedicates a third control processor to instrumentation
	// (the paper's runs were fully instrumented: three processors of
	// control keep 4-processor runs slower than serial, §3.2).
	Monitor bool
	// UnitTime is seconds per likelihood work unit (calibrated so the
	// serial 150-taxon run lands near the paper's ~192 hours).
	UnitTime float64
	// DispatchLatency is the foreman's cost to send one task (s).
	DispatchLatency float64
	// ReturnLatency is the foreman's cost to receive one result (s).
	ReturnLatency float64
	// WorkerTaskOverhead is the per-task cost a worker pays beyond the
	// likelihood computation — receiving, parsing, and re-serializing
	// the tree. The serial program's worker "acts as a subroutine"
	// (paper §2) and pays none of it, which is why four processors run
	// slower than one (§3.2).
	WorkerTaskOverhead float64
	// MasterByteTime is the master's serial tree-generation cost per
	// serialized byte (s).
	MasterByteTime float64
	// RoundBarrier is the fixed cost of determining the round's best
	// tree and adopting it (s); this is the loose synchronization point
	// of §3.2.
	RoundBarrier float64
	// Speculative enables Ceron-style speculative evaluation (§3.2:
	// "Ceron's parallel DNAml implementation performs speculative
	// calculations based on the relatively low probability of a local
	// rearrangement improving the likelihood"; the paper planned to
	// study whether it would help fastDNAml). Rounds whose outcome is
	// correctly predicted (SpeculativeNext) merge with the next round's
	// dispatch, removing one barrier.
	Speculative bool
	// Startup is the fixed program start/stop overhead (s).
	Startup float64
	// Slices switches the foreman from the paper's one tree per message
	// to this repository's guided slices: a free worker is sent max(1,
	// ⌈tasks left in the round / (2 × workers)⌉) tasks in one message and
	// answers them in one. DispatchLatency, ReturnLatency and
	// WorkerTaskOverhead are then paid once per slice.
	Slices bool
}

// Workers returns the number of worker processors: P minus the control
// processors (master, foreman, and optionally monitor); the serial
// program (P = 1) "acts as a subroutine" so it counts one worker.
func (c Cluster) Workers() (int, error) {
	if c.Processors < 1 {
		return 0, fmt.Errorf("spsim: %d processors", c.Processors)
	}
	if c.Processors == 1 {
		return 1, nil
	}
	control := 2
	if c.Monitor {
		control = 3
	}
	w := c.Processors - control
	if w < 1 {
		return 0, fmt.Errorf("spsim: %d processors leave no workers (%d control)", c.Processors, control)
	}
	return w, nil
}

// SimResult is the simulated timing of one run.
type SimResult struct {
	// TotalSeconds is the simulated wall time.
	TotalSeconds float64
	// ComputeSeconds is the sum of pure task compute time (work
	// units x UnitTime), the serial lower bound on useful work.
	ComputeSeconds float64
	// MasterSeconds is the master's serial generation time.
	MasterSeconds float64
	// CommSeconds is the foreman's total dispatch/receive occupancy.
	CommSeconds float64
	// IdleFraction is the workers' average idle share of the run.
	IdleFraction float64
	// RoundSeconds is the per-round wall time.
	RoundSeconds []float64
}

// Simulate replays the log on the cluster.
func (c Cluster) Simulate(log *RunLog) (*SimResult, error) {
	w, err := c.Workers()
	if err != nil {
		return nil, err
	}
	serial := c.Processors == 1
	res := &SimResult{TotalSeconds: c.Startup}
	busy := 0.0
	rounds := log.Rounds
	if c.Speculative && !serial {
		rounds = mergeSpeculative(rounds)
	}
	for _, round := range rounds {
		gen := round.GenBytes * c.MasterByteTime
		res.MasterSeconds += gen
		var roundTime float64
		if serial {
			sum := 0.0
			for _, u := range round.TaskUnits {
				sum += u * c.UnitTime
			}
			roundTime = gen + sum + c.RoundBarrier
			busy += sum
			res.ComputeSeconds += sum
		} else {
			sched := c.scheduleRound(round.TaskUnits, w)
			roundTime = gen + sched.makespan + c.RoundBarrier
			busy += sched.busy
			res.ComputeSeconds += sched.busy
			res.CommSeconds += sched.comm
		}
		res.TotalSeconds += roundTime
		res.RoundSeconds = append(res.RoundSeconds, roundTime)
	}
	if res.TotalSeconds > 0 {
		capacity := res.TotalSeconds * float64(w)
		res.IdleFraction = 1 - busy/capacity
	}
	return res, nil
}

// mergeSpeculative coalesces each correctly-predicted round with its
// successor: the tasks of both dispatch as one batch with a single
// barrier, and the master's generation work for the successor overlaps
// the predecessor's computation (so only the larger GenBytes cost is
// charged). Chains of predictions merge transitively.
func mergeSpeculative(rounds []Round) []Round {
	var out []Round
	i := 0
	for i < len(rounds) {
		cur := Round{
			Kind:      rounds[i].Kind,
			TaskUnits: append([]float64(nil), rounds[i].TaskUnits...),
			GenBytes:  rounds[i].GenBytes,
		}
		for rounds[i].SpeculativeNext && i+1 < len(rounds) {
			i++
			cur.TaskUnits = append(cur.TaskUnits, rounds[i].TaskUnits...)
			if rounds[i].GenBytes > cur.GenBytes {
				cur.GenBytes = rounds[i].GenBytes
			}
			cur.Kind += "+" + rounds[i].Kind
			cur.SpeculativeNext = rounds[i].SpeculativeNext
		}
		cur.SpeculativeNext = false
		out = append(out, cur)
		i++
	}
	return out
}

// schedOutcome is one round's schedule summary.
type schedOutcome struct {
	makespan float64
	busy     float64 // total worker compute time
	comm     float64 // total foreman occupancy
}

// workerEvent orders worker completions.
type workerEvent struct {
	when   float64
	worker int
}

type eventHeap []workerEvent

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].when < h[j].when }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(workerEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// scheduleRound plays the foreman discipline: messages go out in order,
// one send at a time (the foreman is a serial resource); each completion
// is received (ReturnLatency) and the worker's next message dispatched.
// A message is one task, or with Slices the guided share of what is left.
// The round ends when the last result has been received.
func (c Cluster) scheduleRound(units []float64, workers int) schedOutcome {
	var out schedOutcome
	if len(units) == 0 {
		return out
	}
	foreman := 0.0
	next := 0
	var events eventHeap
	heap.Init(&events)

	dispatch := func(worker int) {
		n := 1
		if c.Slices {
			n = (len(units) - next + 2*workers - 1) / (2 * workers)
		}
		u := c.WorkerTaskOverhead
		for _, task := range units[next : next+n] {
			u += task * c.UnitTime
		}
		next += n
		foreman += c.DispatchLatency
		out.comm += c.DispatchLatency
		start := foreman // worker receives the message when the send completes
		heap.Push(&events, workerEvent{when: start + u, worker: worker})
		out.busy += u
	}

	for wkr := 0; wkr < workers && next < len(units); wkr++ {
		dispatch(wkr)
	}
	var lastDone float64
	for events.Len() > 0 {
		ev := heap.Pop(&events).(workerEvent)
		if ev.when > foreman {
			foreman = ev.when
		}
		foreman += c.ReturnLatency
		out.comm += c.ReturnLatency
		lastDone = foreman
		if next < len(units) {
			dispatch(ev.worker)
		}
	}
	out.makespan = lastDone
	return out
}

// ScalingPoint is one processor count's simulated performance.
type ScalingPoint struct {
	// Processors is P.
	Processors int
	// Seconds is the simulated wall time.
	Seconds float64
	// Speedup is serial time / this time.
	Speedup float64
	// Efficiency is Speedup / Processors.
	Efficiency float64
	// IdleFraction is the workers' idle share.
	IdleFraction float64
}

// Sweep simulates the log across processor counts, always including the
// serial baseline as the speedup reference (the paper presents scaling
// "in the most conservative fashion possible, using the serial version
// ... as the basis for comparison", §3.2).
func (c Cluster) Sweep(log *RunLog, processors []int) ([]ScalingPoint, error) {
	serialCluster := c
	serialCluster.Processors = 1
	serialRes, err := serialCluster.Simulate(log)
	if err != nil {
		return nil, err
	}
	var out []ScalingPoint
	for _, p := range processors {
		cc := c
		cc.Processors = p
		var r *SimResult
		if p == 1 {
			r = serialRes
		} else {
			r, err = cc.Simulate(log)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, ScalingPoint{
			Processors:   p,
			Seconds:      r.TotalSeconds,
			Speedup:      serialRes.TotalSeconds / r.TotalSeconds,
			Efficiency:   serialRes.TotalSeconds / r.TotalSeconds / float64(p),
			IdleFraction: r.IdleFraction,
		})
	}
	return out, nil
}

// DefaultCluster returns the calibrated Power3+-like machine model used
// by the figure harness. UnitTime is chosen so the synthetic 150-taxon
// serial run lands near the paper's ~192 hours (see EXPERIMENTS.md);
// message costs reflect the paper's observation that an individual tree
// costs hundreds of thousands of floating point operations per byte
// moved, i.e. communication is cheap but not free.
func DefaultCluster(processors int) Cluster {
	return Cluster{
		Processors:         processors,
		Monitor:            true,
		UnitTime:           11.5e-9,
		DispatchLatency:    350e-6,
		ReturnLatency:      250e-6,
		WorkerTaskOverhead: 0.1,
		MasterByteTime:     1.2e-6,
		RoundBarrier:       2e-3,
		Startup:            15,
	}
}
