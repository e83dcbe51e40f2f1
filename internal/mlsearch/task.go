// Package mlsearch implements fastDNAml's maximum likelihood tree search
// (paper §2, steps 1-5) in both serial and parallel form. The parallel
// form reproduces the paper's four-module architecture (Fig 2): a master
// that generates and compares trees, a foreman that dispatches trees to
// workers through a work queue and ready queue with fault tolerance, the
// workers that optimize branch lengths and compute likelihoods, and an
// optional monitor that collects instrumentation. Master, foreman and
// monitor share the hosting process and exchange Go values; only the
// foreman↔worker hop is a wire.
package mlsearch

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Task is one unit of worker work: a candidate tree topology whose branch
// lengths must be optimized and whose likelihood must be returned (paper
// §2: "Each new tree is dispatched to a worker process, which calculates
// the branch lengths and the overall likelihood value").
type Task struct {
	// ID identifies the task within its round.
	ID uint64
	// Round is the round sequence number (monotone per search).
	Round uint64
	// Newick is the candidate tree with starting branch lengths.
	Newick string
	// LocalTaxon is the taxon an insertion task (InsertEdge >= 0) adds
	// and scores near its attachment point (the rapid insertion scoring
	// of §2.1); -1 on every other task.
	LocalTaxon int32
	// Passes bounds the smoothing passes (0 uses the worker default).
	Passes int32

	// BaseNewick, when non-empty, switches the task to shared-base
	// evaluation: the worker parses and caches this base tree once per
	// slice (reusing its engine's CLV cache across the round's tasks)
	// and derives the candidate from it, instead of parsing Newick.
	// Every worker parses the same string, so node IDs agree with the
	// master's enumeration. On the wire the candidates of a slice carry
	// it once between them.
	BaseNewick string
	// InsertEdge, when >= 0 with BaseNewick set, scores inserting
	// LocalTaxon at index InsertEdge of the base tree's
	// InsertionEdges() — O(patterns) work at the insertion edge.
	InsertEdge int32
	// MoveP/MoveS/MoveTA/MoveTB, when InsertEdge < 0 with BaseNewick
	// set, identify a rearrangement by node IDs in the base tree: prune
	// the subtree at MoveS (dissolving MoveP) and regraft it onto edge
	// (MoveTA, MoveTB). The worker applies the move, optimizes locally,
	// and undoes it, keeping its cached base tree warm.
	MoveP, MoveS, MoveTA, MoveTB int32

	// Trace is the task's span context, minted by the master so one task
	// can be followed master → foreman → worker → kernel. The zero value
	// means untraced.
	Trace obs.SpanContext

	// Job identifies the search (jumble or replicate) this task belongs
	// to when several searches share one foreman. Task IDs are only
	// unique within a job, so the foreman keys its round state by
	// (Job, ID).
	Job uint64
}

// sliceWith reports whether b can ride in the same slice as a: a slice is
// a run of one job's candidates against one shared base tree, so job,
// round, trace, passes, taxon and trees are stated once for all of them.
// A full-tree task (no base) is always a slice of its own.
func (a Task) sliceWith(b Task) bool {
	return a.BaseNewick != "" && a.BaseNewick == b.BaseNewick && a.Newick == b.Newick &&
		a.Job == b.Job && a.Round == b.Round && a.Trace.TraceID == b.Trace.TraceID &&
		a.Passes == b.Passes && a.LocalTaxon == b.LocalTaxon
}

// Pseudo node IDs for the two nodes an insertion creates, which have no
// ID in the base tree an EdgeLen of an insertion result refers to.
const (
	// NodeJunction is the internal node that splits the insertion edge.
	NodeJunction int32 = -1
	// NodeNewLeaf is the inserted taxon's leaf.
	NodeNewLeaf int32 = -2
)

// EdgeLen is one optimized branch length of a shared-base candidate: the
// branch between nodes A and B of the candidate tree — the base tree
// after the task's insertion or SPR move, which gives the regraft
// junction the dissolved node's ID — has length Len.
type EdgeLen struct {
	A, B int32
	Len  float64
}

// Result is a worker's answer to one Task.
type Result struct {
	// TaskID echoes Task.ID.
	TaskID uint64
	// Round echoes Task.Round.
	Round uint64
	// Newick is the tree with optimized branch lengths, for a full-tree
	// task. A shared-base candidate returns Lens instead: only a round's
	// winner is ever built, by the master, on the base it already holds.
	Newick string
	// Lens, for a shared-base candidate, lists every branch whose length
	// differs from the candidate tree's starting lengths: applying the
	// task to the base and setting these reproduces the optimized tree
	// exactly (applyCandidate).
	Lens []EdgeLen
	// Err, when non-empty, says the evaluation failed and why; every
	// other field but the identifiers is then zero. A failed candidate
	// fails its job's round, not the worker that met it.
	Err string
	// LnL is the optimized log-likelihood.
	LnL float64
	// Ops is the number of likelihood work units the evaluation cost;
	// the cluster simulator's cost model consumes it. Cache hits cost
	// zero ops, so shared-base tasks report only the work actually done.
	Ops uint64
	// CacheHits and CacheMisses count the worker engine's CLV cache
	// behaviour during this task, for the scaling simulator.
	CacheHits, CacheMisses uint64
	// Worker is the responding worker's rank, or InlineWorker; the
	// foreman fills it in, and it does not travel on the wire.
	Worker int32
	// Eval is the worker-side evaluation time for the task (parse +
	// CLV compute + Newton iterations), at full time.Duration precision.
	// The foreman subtracts it from the observed round trip to attribute
	// the network share of a task's latency.
	Eval time.Duration
	// NewtonIters counts Newton-Raphson iterations the task consumed.
	NewtonIters uint64
	// Trace echoes Task.Trace so the reply closes the dispatched span.
	Trace obs.SpanContext
	// Job echoes Task.Job so the foreman can attribute the reply to the
	// right job without consulting its dispatch records.
	Job uint64
}

// --- binary wire codec -------------------------------------------------
//
// Messages travel as length-delimited fields in big-endian order. The
// codec is hand-rolled (no reflection) so the wire format is explicit,
// stable, and cheap; the paper's processes exchange ASCII trees plus a
// few scalars, and this mirrors that.

type wireWriter struct{ buf []byte }

func (w *wireWriter) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *wireWriter) i32(v int32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	w.buf = append(w.buf, b[:]...)
}

func (w *wireWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *wireWriter) str(s string) {
	w.i32(int32(len(s)))
	w.buf = append(w.buf, s...)
}

type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("mlsearch: truncated message reading %s at offset %d", what, r.off)
	}
}

func (r *wireReader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) i32(what string) int32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := int32(binary.BigEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	return v
}

func (r *wireReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// bytes reads a length-prefixed field in place.
func (r *wireReader) bytes(what string) []byte {
	n := r.i32(what)
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+int(n) > len(r.buf) {
		r.fail(what)
		return nil
	}
	r.off += int(n)
	return r.buf[r.off-int(n) : r.off]
}

func (r *wireReader) str(what string) string { return string(r.bytes(what)) }

func (r *wireReader) done(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("mlsearch: %d trailing bytes decoding %s", len(r.buf)-r.off, what)
	}
	return nil
}

// count reads an element count and checks it against the bytes left, so
// a corrupt count cannot size an allocation.
func (r *wireReader) count(what string, minElem int) int {
	n := r.i32(what)
	if r.err == nil && (n < 0 || int(n) > (len(r.buf)-r.off)/minElem) {
		r.fail(what)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Wire sizes of one candidate and of one result without its strings and
// lengths: the least a count's elements can occupy.
const (
	wireCandidateSize = 8 + 8 + 5*4
	wireResultSize    = 8 + 8 + 8 + 5*8 + 3*4
	wireEdgeLenSize   = 4 + 4 + 8
)

// marshalTasks encodes one slice — tasks that sliceWith each other, or a
// single task — as the payload of a TagTask frame: what the tasks share
// once, then each candidate's identity and edit. The returned buffer comes from the comm buffer pool: once it has
// been handed to Send (which copies or takes ownership), the caller may
// comm.PutBuf it.
func marshalTasks(tasks []Task) []byte {
	h := tasks[0]
	w := wireWriter{buf: comm.GetBuf(64 + len(h.Newick) + len(h.BaseNewick) + wireCandidateSize*len(tasks))[:0]}
	w.u64(h.Job)
	w.u64(h.Round)
	w.u64(h.Trace.TraceID)
	w.i32(h.Passes)
	w.i32(h.LocalTaxon)
	w.str(h.Newick)
	w.str(h.BaseNewick)
	w.i32(int32(len(tasks)))
	for _, t := range tasks {
		w.u64(t.ID)
		w.u64(t.Trace.SpanID)
		w.i32(t.InsertEdge)
		w.i32(t.MoveP)
		w.i32(t.MoveS)
		w.i32(t.MoveTA)
		w.i32(t.MoveTB)
	}
	return w.buf
}

// unmarshalTasks decodes a slice; the tasks share the decoded strings.
func unmarshalTasks(b []byte) ([]Task, error) {
	r := wireReader{buf: b}
	h := Task{Job: r.u64("slice job"), Round: r.u64("slice round")}
	h.Trace.TraceID = r.u64("slice trace")
	h.Passes = r.i32("slice passes")
	h.LocalTaxon = r.i32("slice taxon")
	h.Newick = r.str("slice newick")
	h.BaseNewick = r.str("slice base newick")
	tasks := make([]Task, r.count("slice candidate count", wireCandidateSize))
	for i := range tasks {
		t := h
		t.ID = r.u64("candidate id")
		t.Trace.SpanID = r.u64("candidate span")
		t.InsertEdge = r.i32("candidate insert edge")
		t.MoveP = r.i32("candidate move p")
		t.MoveS = r.i32("candidate move s")
		t.MoveTA = r.i32("candidate move ta")
		t.MoveTB = r.i32("candidate move tb")
		tasks[i] = t
	}
	if err := r.done("task slice"); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("mlsearch: empty task slice")
	}
	return tasks, nil
}

// MarshalTask encodes a Task for the wire as a slice of one. Like every
// encoder here the buffer is pool-backed and may be comm.PutBuf'd after
// Send.
func MarshalTask(t Task) []byte { return marshalTasks([]Task{t}) }

// UnmarshalTask decodes a slice of exactly one Task.
func UnmarshalTask(b []byte) (Task, error) {
	tasks, err := unmarshalTasks(b)
	if err != nil {
		return Task{}, err
	}
	if len(tasks) != 1 {
		return Task{}, fmt.Errorf("mlsearch: slice of %d tasks where one was expected", len(tasks))
	}
	return tasks[0], nil
}

// marshalResults encodes a worker's reply to a slice, the payload of a
// TagResult frame: results of one job's round, which share job, round
// and trace.
func marshalResults(results []Result) []byte {
	h := results[0]
	size := 32 + wireResultSize*len(results)
	for _, res := range results {
		size += wireEdgeLenSize*len(res.Lens) + len(res.Newick) + len(res.Err)
	}
	w := wireWriter{buf: comm.GetBuf(size)[:0]}
	w.u64(h.Job)
	w.u64(h.Round)
	w.u64(h.Trace.TraceID)
	w.i32(int32(len(results)))
	for _, res := range results {
		w.u64(res.TaskID)
		w.u64(res.Trace.SpanID)
		w.f64(res.LnL)
		w.u64(res.Ops)
		w.u64(res.CacheHits)
		w.u64(res.CacheMisses)
		w.u64(uint64(res.Eval))
		w.u64(res.NewtonIters)
		w.i32(int32(len(res.Lens)))
		for _, l := range res.Lens {
			w.i32(l.A)
			w.i32(l.B)
			w.f64(l.Len)
		}
		w.str(res.Newick)
		w.str(res.Err)
	}
	return w.buf
}

// unmarshalResults decodes what marshalResults wrote.
func unmarshalResults(b []byte) ([]Result, error) {
	r := wireReader{buf: b}
	h := Result{Job: r.u64("reply job"), Round: r.u64("reply round")}
	h.Trace.TraceID = r.u64("reply trace")
	results := make([]Result, r.count("reply result count", wireResultSize))
	for i := range results {
		res := h
		res.TaskID = r.u64("result task id")
		res.Trace.SpanID = r.u64("result span")
		res.LnL = r.f64("result lnl")
		res.Ops = r.u64("result ops")
		res.CacheHits = r.u64("result cache hits")
		res.CacheMisses = r.u64("result cache misses")
		res.Eval = time.Duration(r.u64("result eval"))
		res.NewtonIters = r.u64("result newton iterations")
		if n := r.count("result length count", wireEdgeLenSize); n > 0 {
			res.Lens = make([]EdgeLen, n)
			for j := range res.Lens {
				res.Lens[j] = EdgeLen{A: r.i32("length a"), B: r.i32("length b"), Len: r.f64("length")}
			}
		}
		res.Newick = r.str("result newick")
		res.Err = r.str("result error")
		results[i] = res
	}
	if err := r.done("result slice"); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("mlsearch: empty result slice")
	}
	return results, nil
}

// MarshalResult encodes a Result for the wire as a reply of one.
func MarshalResult(res Result) []byte { return marshalResults([]Result{res}) }

// UnmarshalResult decodes a reply of exactly one Result.
func UnmarshalResult(b []byte) (Result, error) {
	results, err := unmarshalResults(b)
	if err != nil {
		return Result{}, err
	}
	if len(results) != 1 {
		return Result{}, fmt.Errorf("mlsearch: reply of %d results where one was expected", len(results))
	}
	return results[0], nil
}
