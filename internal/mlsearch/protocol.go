package mlsearch

import (
	"fmt"

	"repro/internal/comm"
)

// Control protocol between master, foreman, and monitor. The master sends
// a round's full task list to the foreman in one batch (the paper notes
// both fastDNAml and Ceron's code improve efficiency "by calculating in
// advance the list of trees to be dispatched to workers", §3.2); the
// foreman answers with every task's result.

// Layout assigns roles to ranks. The paper's parallel program has three
// core processes — master, foreman, and the optional monitor — plus a
// variable number of workers (§2.2).
type Layout struct {
	// Master generates and compares trees.
	Master int
	// Foreman dispatches trees to workers.
	Foreman int
	// Monitor receives instrumentation events; -1 disables it.
	Monitor int
	// Workers optimize trees. In an elastic layout this is the initial
	// membership (usually empty); workers announce themselves through the
	// transport's join handshake.
	Workers []int
	// Elastic marks a layout whose worker set changes at runtime: the
	// foreman folds TagJoin/TagLeave transport messages into its
	// membership instead of requiring Workers up front.
	Elastic bool
}

// ElasticLayout is the distributed runtime's layout: fixed role ranks for
// the master (0), foreman (1), and optional monitor (2), with workers
// assigned ranks dynamically as they join.
func ElasticLayout(withMonitor bool) Layout {
	lay := Layout{Master: 0, Foreman: 1, Monitor: -1, Elastic: true}
	if withMonitor {
		lay.Monitor = 2
	}
	return lay
}

// FirstDynamicRank is the first rank the transport may assign to a
// joining worker: one past the highest role rank.
func (l Layout) FirstDynamicRank() int {
	first := l.Master
	if l.Foreman > first {
		first = l.Foreman
	}
	if l.Monitor > first {
		first = l.Monitor
	}
	return first + 1
}

// DefaultLayout maps a world of the given size onto the paper's layout:
// rank 0 master, rank 1 foreman, rank 2 monitor (when enabled), the rest
// workers. The fully instrumented program needs at least four processes
// (paper §2.2); without the monitor, three.
func DefaultLayout(size int, withMonitor bool) (Layout, error) {
	lay := Layout{Master: 0, Foreman: 1, Monitor: -1}
	firstWorker := 2
	if withMonitor {
		lay.Monitor = 2
		firstWorker = 3
	}
	if size < firstWorker+1 {
		return Layout{}, fmt.Errorf("mlsearch: world size %d too small (need %d + >=1 worker)", size, firstWorker)
	}
	for r := firstWorker; r < size; r++ {
		lay.Workers = append(lay.Workers, r)
	}
	return lay, nil
}

// Validate checks the layout for overlaps and missing workers.
func (l Layout) Validate() error {
	seen := map[int]string{}
	claim := func(rank int, role string) error {
		if rank < 0 {
			return fmt.Errorf("mlsearch: negative rank for %s", role)
		}
		if prev, ok := seen[rank]; ok {
			return fmt.Errorf("mlsearch: rank %d assigned to both %s and %s", rank, prev, role)
		}
		seen[rank] = role
		return nil
	}
	if err := claim(l.Master, "master"); err != nil {
		return err
	}
	if err := claim(l.Foreman, "foreman"); err != nil {
		return err
	}
	if l.Monitor >= 0 {
		if err := claim(l.Monitor, "monitor"); err != nil {
			return err
		}
	}
	if len(l.Workers) == 0 && !l.Elastic {
		return fmt.Errorf("mlsearch: layout has no workers")
	}
	for _, w := range l.Workers {
		if err := claim(w, "worker"); err != nil {
			return err
		}
	}
	return nil
}

// control message kinds.
const (
	ctlRoundBatch byte = 1 + iota
	ctlRoundReply
)

// roundBatch is the master -> foreman message starting a round.
type roundBatch struct {
	// Round numbers the batch within its job's lane; the reply echoes it.
	Round uint64
	// Job identifies the submitting search; several searches may have
	// batches open at the foreman at once.
	Job   uint64
	Tasks []Task
}

// roundReply is the foreman -> master answer: every task's result, or
// what had arrived when one of them failed (that one included).
type roundReply struct {
	Round uint64
	// Job echoes roundBatch.Job so the master-side mux can route the
	// reply to the search that is waiting on it.
	Job     uint64
	Results []Result
}

// Both control envelopes are kind, round, job, the element count and
// then the same slice encodings the workers see, as length-prefixed runs:
// a search's round is a single run, so its base tree crosses once.

func marshalRoundBatch(b roundBatch) []byte {
	return marshalRuns(ctlRoundBatch, b.Round, b.Job, b.Tasks, Task.sliceWith, marshalTasks)
}

func unmarshalRoundBatch(data []byte) (roundBatch, error) {
	var out roundBatch
	var err error
	out.Round, out.Job, out.Tasks, err = unmarshalRuns(data, ctlRoundBatch, "round batch", unmarshalTasks)
	return out, err
}

func marshalRoundReply(rr roundReply) []byte {
	sameHeader := func(a, b Result) bool { return a.Round == b.Round && a.Trace.TraceID == b.Trace.TraceID }
	return marshalRuns(ctlRoundReply, rr.Round, rr.Job, rr.Results, sameHeader, marshalResults)
}

func unmarshalRoundReply(data []byte) (roundReply, error) {
	var out roundReply
	var err error
	out.Round, out.Job, out.Results, err = unmarshalRuns(data, ctlRoundReply, "round reply", unmarshalResults)
	return out, err
}

// marshalRuns writes a control envelope whose items travel as runs: each
// a maximal stretch of neighbours that together lets share one slice
// encoding. The runs' pooled buffers are recycled.
func marshalRuns[T any](kind byte, round, job uint64, items []T, together func(a, b T) bool, encode func([]T) []byte) []byte {
	w := wireWriter{buf: []byte{kind}}
	w.u64(round)
	w.u64(job)
	w.i32(int32(len(items)))
	for len(items) > 0 {
		n := 1
		for n < len(items) && together(items[0], items[n]) {
			n++
		}
		run := encode(items[:n])
		w.i32(int32(len(run)))
		w.buf = append(w.buf, run...)
		comm.PutBuf(run)
		items = items[n:]
	}
	return w.buf
}

// unmarshalRuns reads what marshalRuns wrote.
func unmarshalRuns[T any](data []byte, kind byte, what string, decode func([]byte) ([]T, error)) (round, job uint64, items []T, err error) {
	if len(data) == 0 || data[0] != kind {
		return 0, 0, nil, fmt.Errorf("mlsearch: not a %s", what)
	}
	r := wireReader{buf: data[1:]}
	round, job = r.u64("round"), r.u64("job")
	n := r.i32("count")
	for r.err == nil && r.off < len(r.buf) {
		run := r.bytes("run")
		if r.err != nil {
			break
		}
		part, err := decode(run)
		if err != nil {
			return 0, 0, nil, err
		}
		items = append(items, part...)
	}
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if len(items) != int(n) {
		return 0, 0, nil, fmt.Errorf("mlsearch: %s of %d holds %d", what, n, len(items))
	}
	return round, job, items, nil
}
