package mlsearch

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
)

// The foreman (paper §2.2): "dispatches trees to worker processes for
// analysis, receives back trees and their associated likelihood values,
// and compares the likelihood values to determine which tree has the
// highest likelihood value at any given step. The foreman manages this
// process via a work queue and a ready queue. The work queue includes a
// record of the tree dispatched to each worker and the time the tree was
// dispatched (used to implement fault tolerance)."
//
// Beyond the paper, this foreman is a multi-job scheduler: several
// searches (jumbles, bootstrap replicates) may have rounds open at once,
// each identified by a job id. Every job keeps its own FIFO
// work queue and round state; dispatch is fair across jobs (round-robin
// by job, FIFO within a job), so one search's long round cannot starve
// another's. Each job's round is still a barrier — its reply carries
// exactly its own task set — which is what keeps per-job results
// bit-identical to a sequential run at any concurrency.
//
// The foreman is one goroutine with one blocking receive. Workers reach
// it by message; the master, which shares its process, reaches it through
// memory: a job lane (jobs.go) appends its round to the mutex-guarded
// inbox and sends an empty TagControl message to wake the receive, and
// the round's results go back on the submission's own channel. When the
// loop returns, for whatever reason, every open and inboxed round is
// answered with that reason and later ones are refused, so a foreman that
// has stopped is an error at the caller, never a wait.
//
// What travels to a worker is a slice: a run of one job's queued
// candidates that share a base tree, sent as one frame and answered by
// one frame. Slices are cut by guided self-scheduling — a worker with
// pipeline room takes max(1, ⌈queued in the job / (2 × live workers)⌉)
// candidates off the head of the job's queue — so they start large, while
// there is plenty left to even things out, and end as single candidates,
// so the round's barrier waits for at most one. The books stay per
// candidate: whatever part of a slice goes unanswered is requeued, and a
// result is accepted from whichever worker returns it first.
//
// Membership is dynamic: besides the statically configured workers of a
// local run, the transport may announce workers joining (TagJoin) or
// leaving (TagLeave) at any time, including mid-round. New arrivals are
// folded into the ready queue; departures reuse the expire/requeue
// machinery that already handles delinquent workers. Worker liveness
// state persists across rounds: a worker removed for missing its
// deadline stays removed until a reply (however stale) arrives from it,
// at which point it is reinstated. A worker that *disconnects* is gone
// for good — its rank is never reassigned.
//
// Degradation ladder: (1) all workers healthy — pure dispatch; (2) some
// delinquent — timeout, requeue, reinstate on late reply; (3) a worker
// disconnects — immediate requeue of its slices, no timeout wait; (4) the
// live worker set hits zero — the foreman evaluates queued tasks inline
// (Options.Inline), one candidate at a time, so a run always completes,
// folding newly joined workers back in the moment they arrive. A
// candidate whose evaluation fails is none of these: it would fail
// anywhere, so its result carries the error, its job's round is closed
// with that cause, and workers and other jobs carry on. A worker whose
// frame cannot be decoded, or carries a tag no worker sends, is treated
// as rung (3): the bytes are its own, so it leaves and the fleet stays.

// InlineWorker is the Result.Worker value recorded when the foreman
// evaluated a task itself because no live workers remained.
const InlineWorker int32 = -1

// minForemanTick floors the deadline-scan interval: a Tick derived from
// a tiny TaskTimeout (TaskTimeout/4 truncates to 0 below 4ns) would turn
// the dispatch loop into a busy spin.
const minForemanTick = time.Millisecond

// ForemanOptions tune dispatch behaviour.
type ForemanOptions struct {
	// TaskTimeout is the paper's user-specified timeout parameter: a
	// worker that fails to answer a slice within it is removed from the
	// list of available workers and the slice is re-dispatched.
	// Zero disables timeout-based fault tolerance: the foreman blocks in
	// a plain Recv between results instead of polling for deadlines
	// (disconnects still requeue a dead worker's task immediately).
	TaskTimeout time.Duration
	// Tick bounds how long the foreman blocks between deadline scans
	// while dispatched tasks have live deadlines; with no expirable
	// deadline the foreman blocks indefinitely. Default 50ms, or
	// TaskTimeout/4 if smaller, floored at 1ms.
	Tick time.Duration
	// Inline, when non-nil, lets the foreman evaluate tasks itself when
	// no live workers remain, so a round always completes (the runtime
	// wires an evaluator over the same data set the workers use).
	Inline *Evaluator
	// DrainTimeout bounds how long shutdown waits for workers to
	// acknowledge before closing anyway. Default 1s.
	DrainTimeout time.Duration
	// Pipeline is the number of slices kept in flight per worker. It is
	// not a user setting: the default, 2, is what every program runs with
	// (measured: 7 % faster than 1 over a socket, 4 adds nothing, a
	// mailbox does not care), and the field is the seam through which the
	// determinism tests run depths 1, 2 and 4. With 1 a worker idles for
	// a network round trip between slices, as the paper's dispatcher has
	// it between trees; with 2 the next slice is already queued at the
	// worker when it finishes the current one. Assignment is
	// breadth-first — every ready worker gets its first slice before any
	// worker gets a second.
	Pipeline int
	// Obs, when non-nil, receives dispatch-loop instrumentation (metrics,
	// typed events, trace spans, the /status snapshot). Nil costs one nil
	// check per site.
	Obs *RunObserver
}

func (o ForemanOptions) withDefaults() ForemanOptions {
	if o.Tick <= 0 {
		o.Tick = 50 * time.Millisecond
		if o.TaskTimeout > 0 && o.TaskTimeout/4 < o.Tick {
			o.Tick = o.TaskTimeout / 4
		}
	}
	if o.Tick < minForemanTick {
		o.Tick = minForemanTick
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = time.Second
	}
	if o.Pipeline <= 0 {
		o.Pipeline = 2
	}
	return o
}

// jobState is one job's open round: its FIFO work queue, task set, and
// accumulated results. It exists from the round's submission until its
// reply is sent.
type jobState struct {
	id      uint64
	round   uint64
	queue   []Task
	byID    map[uint64]Task
	results map[uint64]Result
	// reply is the submission's channel, where the round's answer goes.
	reply chan roundReply
	// failed is set by a result carrying an evaluation error: the round
	// is answered as it stands instead of being completed.
	failed bool
	// enq tracks when each task entered the work queue, for the
	// queue-wait phase of its trace span. Only maintained when an
	// observer is attached.
	enq map[uint64]time.Time
}

// Foreman is the foreman role and, for the master that shares its
// process, the handle that opens job lanes to it (NewDispatcher) and
// stops it (Shutdown). Everything but the inbox group belongs to the
// goroutine in Run.
type Foreman struct {
	c   comm.Communicator
	opt ForemanOptions

	// mu guards what job lanes share with the loop: the rounds submitted
	// since the last wake-up, the lane counter, and — once the loop has
	// returned — why, which fails every later submission.
	mu      sync.Mutex
	inbox   []*submission
	nextJob uint64
	stopped error

	// members tracks every currently connected worker rank (including
	// delinquent ones); departures are removed permanently.
	members map[int]bool
	// ready lists alive workers with spare pipeline capacity (FIFO). A
	// worker can be both ready and busy when it has fewer than Pipeline
	// slices in flight.
	ready []int
	// busy maps a worker rank to its in-flight slices, oldest first.
	// Workers with none are absent (len(busy) counts busy workers).
	busy map[int][]dispatchRecord
	// inflight is the total in-flight slice count across all workers.
	inflight int
	// dead marks workers removed for missing a deadline (still
	// connected, eligible for reinstatement).
	dead map[int]bool

	// jobs holds every open round, keyed by job id; order is the
	// round-robin ring of the same ids in arrival order, and rrPos is
	// the next ring slot to draw from.
	jobs  map[uint64]*jobState
	order []uint64
	rrPos int
}

// dispatchRecord is one slice in flight at a worker.
type dispatchRecord struct {
	tasks    []Task
	deadline time.Time
	sent     time.Time
}

// requeue puts tasks back at the head of the job's queue, so re-dispatch
// happens before fresh work.
func (js *jobState) requeue(tasks []Task) {
	js.queue = append(append([]Task(nil), tasks...), js.queue...)
}

// fail records a candidate's evaluation error as its result and stops
// the round: nothing more of the job is dispatched, and flush answers it.
func (js *jobState) fail(res Result) {
	js.results[res.TaskID] = res
	js.failed = true
	js.queue = nil
}

// NewForeman builds the foreman over its own endpoint, with the layout's
// workers as its first members. Nothing runs until Run is called.
func NewForeman(c comm.Communicator, lay Layout, opt ForemanOptions) (*Foreman, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	f := &Foreman{
		c:       c,
		opt:     opt.withDefaults(),
		members: map[int]bool{},
		busy:    map[int][]dispatchRecord{},
		dead:    map[int]bool{},
		jobs:    map[uint64]*jobState{},
	}
	for _, w := range lay.Workers {
		f.members[w] = true
		f.ready = append(f.ready, w)
	}
	return f, nil
}

// Run executes the foreman role until Shutdown, or until its endpoint
// fails. Either way it then answers every round still open or inboxed
// with the reason, refuses later ones, and tells the workers to stop.
func (f *Foreman) Run() error {
	err := f.loop()
	reason := fmt.Errorf("mlsearch: the foreman has shut down")
	if err != nil {
		reason = fmt.Errorf("mlsearch: the foreman has stopped: %w", err)
	}
	f.mu.Lock()
	f.stopped = reason
	unopened := f.inbox
	f.inbox = nil
	f.mu.Unlock()
	for _, js := range f.jobs {
		js.reply <- roundReply{err: reason}
	}
	for _, sub := range unopened {
		sub.reply <- roundReply{err: reason}
	}
	f.shutdown()
	return err
}

// loop is the dispatch loop; it returns nil when the master says stop.
func (f *Foreman) loop() error {
	for {
		f.pump()
		f.flush()

		// Block outright unless a dispatched task's deadline can expire;
		// with fault tolerance off (TaskTimeout 0) or nothing in flight
		// there is no reason to wake every tick.
		var msg comm.Message
		var err error
		if f.opt.TaskTimeout > 0 && f.inflight > 0 {
			msg, err = f.c.RecvTimeout(comm.AnySource, comm.AnyTag, f.opt.Tick)
		} else {
			msg, err = f.c.Recv(comm.AnySource, comm.AnyTag)
		}
		switch {
		case errors.Is(err, comm.ErrTimeout):
			// fall through to the deadline scan
		case err != nil:
			return fmt.Errorf("mlsearch: foreman receive: %w", err)
		case msg.From == f.c.Rank():
			// The master side of this process (jobs.go): stop, or the
			// wake-up for rounds waiting in the inbox.
			if msg.Tag == comm.TagShutdown {
				return nil
			}
			f.takeInbox()
		case msg.Tag == comm.TagJoin:
			f.handleJoin(msg.From)
		case msg.Tag == comm.TagResult:
			// A reply for an already-answered round still reinstates its
			// sender; one that does not decode is bytes of the sender's
			// choosing, and costs the fleet that one worker.
			if !f.handleResult(msg) {
				f.handleLeave(msg.From)
			}
		default:
			// TagLeave, or a tag no worker sends.
			f.handleLeave(msg.From)
		}
		f.expire()
	}
}

// takeInbox opens every round submitted since the last wake-up.
func (f *Foreman) takeInbox() {
	f.mu.Lock()
	subs := f.inbox
	f.inbox = nil
	f.mu.Unlock()
	for _, sub := range subs {
		f.startJob(sub)
	}
}

// shutdown broadcasts TagShutdown to every connected worker and waits
// briefly for their acknowledgements, so frames drain before the caller
// tears the transport down.
func (f *Foreman) shutdown() {
	waiting := map[int]bool{}
	for w := range f.members {
		if f.c.Send(w, comm.TagShutdown, nil) == nil {
			waiting[w] = true
		}
	}
	deadline := time.Now().Add(f.opt.DrainTimeout)
	for len(waiting) > 0 {
		d := time.Until(deadline)
		if d <= 0 {
			break
		}
		msg, err := f.c.RecvTimeout(comm.AnySource, comm.AnyTag, d)
		if err != nil {
			break
		}
		switch msg.Tag {
		case comm.TagShutdown, comm.TagLeave:
			delete(waiting, msg.From)
		}
	}
}

// startJob opens a submitted round as a new scheduling job. The queue is
// the foreman's own copy: the submitting search keeps its slice.
func (f *Foreman) startJob(sub *submission) {
	if _, dup := f.jobs[sub.job]; dup {
		sub.reply <- roundReply{err: fmt.Errorf("mlsearch: job %d already has an open round at the foreman", sub.job)}
		return
	}
	js := &jobState{
		id:      sub.job,
		round:   sub.round,
		queue:   append([]Task(nil), sub.tasks...),
		byID:    map[uint64]Task{},
		results: map[uint64]Result{},
		reply:   sub.reply,
	}
	for _, t := range sub.tasks {
		js.byID[t.ID] = t
	}
	if f.opt.Obs != nil {
		js.enq = make(map[uint64]time.Time, len(sub.tasks))
		now := time.Now()
		for _, t := range sub.tasks {
			js.enq[t.ID] = now
		}
	}
	f.jobs[sub.job] = js
	f.order = append(f.order, sub.job)
	f.opt.Obs.RoundStart(sub.job, sub.round, len(sub.tasks))
	f.depths()
}

// pump advances scheduling as far as it can without blocking: assign
// queued tasks to ready workers, and — the bottom rung of the
// degradation ladder — evaluate inline when work is queued but no live
// worker can take it.
func (f *Foreman) pump() {
	for {
		f.assign()
		if f.queuedTotal() > 0 && len(f.ready) == 0 && f.inflight == 0 && f.opt.Inline != nil {
			f.evalInline()
			continue
		}
		return
	}
}

// flush answers every job whose round has completed, removing it from
// the scheduler.
func (f *Foreman) flush() {
	for i := 0; i < len(f.order); {
		js := f.jobs[f.order[i]]
		if !js.failed && len(js.results) < len(js.byID) {
			i++
			continue
		}
		f.finishJob(js) // removes this ring slot; re-test index i
	}
}

// finishJob sends a job's round reply — every result, sorted by task ID
// (for a failed round: what had arrived, the failure among them) — and
// closes the round.
func (f *Foreman) finishJob(js *jobState) {
	results := make([]Result, 0, len(js.results))
	best := math.Inf(-1)
	for _, r := range js.results {
		results = append(results, r)
		if r.Err == "" && r.LnL > best {
			best = r.LnL
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].TaskID < results[j].TaskID })
	f.removeJob(js.id)
	f.opt.Obs.RoundDone(js.id, js.round, len(f.members), best)
	f.depths()
	js.reply <- roundReply{results: results}
}

// removeJob drops a job from the map and the round-robin ring.
func (f *Foreman) removeJob(id uint64) {
	delete(f.jobs, id)
	for i, j := range f.order {
		if j == id {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	if len(f.order) > 0 {
		f.rrPos %= len(f.order)
	} else {
		f.rrPos = 0
	}
}

// queuedTotal sums the queued tasks across all jobs.
func (f *Foreman) queuedTotal() int {
	n := 0
	for _, js := range f.jobs {
		n += len(js.queue)
	}
	return n
}

// nextSlice cuts the next slice to dispatch: round-robin across jobs
// starting at the ring position, then from the head of that job's queue
// the guided share of what it holds — max(1, ⌈queued / (2 × live)⌉)
// candidates, fewer where the run of candidates sharing the head's base
// ends. With live == 0 (the inline fallback) it is one candidate. Tasks
// whose requeued copy already finished elsewhere are discarded on the
// way. The slice aliases the queue's backing array, which is never
// written again (requeue builds a new one).
func (f *Foreman) nextSlice(live int) (*jobState, []Task) {
	n := len(f.order)
	for i := 0; i < n; i++ {
		idx := (f.rrPos + i) % n
		js := f.jobs[f.order[idx]]
		done := func(t Task) bool { _, ok := js.results[t.ID]; return ok }
		for len(js.queue) > 0 && done(js.queue[0]) {
			js.queue = js.queue[1:]
		}
		q := js.queue
		if len(q) == 0 {
			continue
		}
		want := 1
		if live > 0 {
			want = (len(q) + 2*live - 1) / (2 * live)
		}
		k := 1
		for k < want && q[0].sliceWith(q[k]) && !done(q[k]) {
			k++
		}
		js.queue = q[k:]
		f.rrPos = (idx + 1) % n
		return js, q[:k:k]
	}
	return nil, nil
}

// depths reports the scheduler's queue sizes to the observer.
func (f *Foreman) depths() {
	if f.opt.Obs == nil {
		return
	}
	f.opt.Obs.Depths(f.queuedTotal(), len(f.busy), len(f.ready), f.inflight, len(f.jobs))
}

// dropReady removes a worker from the ready queue if present.
func (f *Foreman) dropReady(w int) {
	for i, r := range f.ready {
		if r == w {
			f.ready = append(f.ready[:i], f.ready[i+1:]...)
			return
		}
	}
}

// dropBusy removes all of a worker's in-flight slices and requeues their
// not-yet-answered candidates at the front of their own job's queue
// (oldest first), so re-dispatch happens before fresh work.
func (f *Foreman) dropBusy(w int) {
	recs := f.busy[w]
	delete(f.busy, w)
	f.inflight -= len(recs)
	for i := len(recs) - 1; i >= 0; i-- {
		f.requeueUnanswered(recs[i].tasks)
	}
}

// openRound returns the job's open round if the task with this ID and
// round belongs to it, nil when that round has been answered: a slice can
// outlive its round (one that failed is answered with slices still out),
// and its job may have opened the next.
func (f *Foreman) openRound(job, id, round uint64) *jobState {
	js := f.jobs[job]
	if js == nil || js.failed {
		return nil
	}
	if own, known := js.byID[id]; !known || own.Round != round {
		return nil
	}
	return js
}

// requeueUnanswered requeues the candidates of a slice that have no
// result yet, unless their round was already answered.
func (f *Foreman) requeueUnanswered(tasks []Task) {
	js := f.openRound(tasks[0].Job, tasks[0].ID, tasks[0].Round)
	if js == nil {
		return
	}
	var undone []Task
	for _, t := range tasks {
		if _, done := js.results[t.ID]; !done {
			undone = append(undone, t)
		}
	}
	js.requeue(undone)
}

// evalInline evaluates the next queued task in the foreman itself — the
// bottom rung of the degradation ladder, keeping the run alive with an
// empty worker set.
func (f *Foreman) evalInline() {
	js, slice := f.nextSlice(0)
	if js == nil {
		return
	}
	t := slice[0]
	res, err := f.opt.Inline.Evaluate(t)
	if err != nil {
		res = failedResult(t, err)
		res.Worker = InlineWorker
		js.fail(res)
		return
	}
	res.Worker = InlineWorker
	js.results[t.ID] = res
	f.opt.Obs.Inline(t.Job, t.Round, t.ID, res.LnL)
	f.depths()
}

// handleJoin folds a newly announced worker into the membership and the
// ready queue (mid-round joins start pulling tasks immediately).
func (f *Foreman) handleJoin(w int) {
	f.members[w] = true
	f.pushReady(w)
	f.opt.Obs.Joined(w)
	f.depths()
}

// handleLeave removes a departed worker permanently. What is unanswered
// of its in-flight slices is requeued at the front, reusing the
// expire/requeue machinery's ordering so re-dispatch happens before
// fresh work.
func (f *Foreman) handleLeave(w int) {
	delete(f.members, w)
	delete(f.dead, w)
	f.dropReady(w)
	f.dropBusy(w)
	f.opt.Obs.Left(w)
	f.depths()
}

// pushReady returns a worker to the ready queue, clearing its dead flag
// and avoiding duplicates. A worker already at its pipeline capacity
// stays out; it re-enters when a result frees a slot.
func (f *Foreman) pushReady(w int) {
	delete(f.dead, w)
	if len(f.busy[w]) >= f.opt.Pipeline {
		return
	}
	for _, r := range f.ready {
		if r == w {
			return
		}
	}
	f.ready = append(f.ready, w)
}

// assign hands slices of the queued tasks to ready workers, keeping up
// to Pipeline slices in flight per worker. A worker with spare capacity
// re-enters at the back of the ready queue, so assignment is
// breadth-first: every ready worker receives its first slice before any
// worker receives a second.
func (f *Foreman) assign() {
	for len(f.ready) > 0 {
		js, slice := f.nextSlice(len(f.members) - len(f.dead))
		if js == nil {
			break
		}
		w := f.ready[0]
		f.ready = f.ready[1:]
		now := time.Now()
		rec := dispatchRecord{tasks: slice, sent: now}
		if f.opt.TaskTimeout > 0 {
			rec.deadline = now.Add(f.opt.TaskTimeout)
		}
		head := slice[0]
		buf := marshalTasks(slice)
		err := f.c.Send(w, comm.TagTask, buf)
		comm.PutBuf(buf)
		if err != nil {
			// An unroutable worker has disconnected: drop it from the
			// membership, requeue this slice and anything else in flight
			// to it immediately.
			js.requeue(slice)
			delete(f.members, w)
			delete(f.dead, w)
			f.dropBusy(w)
			f.opt.Obs.TimedOut(w, head.Job, head.Round, head.ID)
			continue
		}
		f.busy[w] = append(f.busy[w], rec)
		f.inflight++
		if len(f.busy[w]) < f.opt.Pipeline {
			f.ready = append(f.ready, w)
		}
		if f.opt.Obs != nil {
			for _, t := range slice {
				f.opt.Obs.Dispatched(w, t.Job, t.Round, t.ID, now.Sub(js.enq[t.ID]))
			}
		}
	}
	f.depths()
}

// handleResult processes a worker's TagResult message: its reply to one
// slice, holding a result for every candidate it did not drop. It reports
// false, having done nothing, for a frame that does not decode.
func (f *Foreman) handleResult(msg comm.Message) bool {
	results, err := unmarshalResults(msg.Data)
	if err != nil {
		return false
	}
	comm.PutBuf(msg.Data) // decoded (strings copied); recycle the frame
	w := msg.From
	first := results[0]

	if f.dead[w] {
		// Paper §2.2: "If at some later time a response is received from
		// the delinquent worker, then that worker is added back into the
		// list of workers available to analyze trees."
		f.opt.Obs.Reinstated(w, first.Round)
	}
	// A reply proves liveness even if the transport never announced the
	// sender (e.g. a membership race): make sure it is a member.
	f.members[w] = true

	// The slice this answers is the worker's in-flight record holding the
	// first result's task. Its round trip beyond the evaluations is shared
	// equally among the results, so that RTT − Eval summed over a round's
	// tasks is still the reply time not spent evaluating.
	var answered []Task
	var overhead time.Duration
	for i, rec := range f.busy[w] {
		if head := rec.tasks[0]; head.Job != first.Job || head.Round != first.Round || !holdsTask(rec.tasks, first.TaskID) {
			continue
		}
		answered = rec.tasks
		overhead = time.Since(rec.sent)
		for _, res := range results {
			overhead -= res.Eval
		}
		overhead /= time.Duration(len(results))
		if recs := append(f.busy[w][:i], f.busy[w][i+1:]...); len(recs) > 0 {
			f.busy[w] = recs
		} else {
			delete(f.busy, w)
		}
		f.inflight--
		break
	}
	if js := f.openRound(first.Job, first.TaskID, first.Round); js != nil {
		for _, res := range results {
			if _, known := js.byID[res.TaskID]; !known {
				continue
			}
			if _, dup := js.results[res.TaskID]; dup {
				continue
			}
			res.Worker = int32(w)
			if res.Err != "" {
				js.fail(res)
				break
			}
			js.results[res.TaskID] = res
			var rtt time.Duration
			if answered != nil {
				rtt = res.Eval + overhead
			}
			f.opt.Obs.Completed(w, res, rtt)
		}
		// The worker is done with the slice: a candidate it did not
		// answer (a dropped reply) goes back without waiting for the
		// timeout.
		if answered != nil {
			f.requeueUnanswered(answered)
		}
	}
	f.pushReady(w)
	f.depths()
	return true
}

// holdsTask reports whether a slice contains the task with this ID.
func holdsTask(tasks []Task, id uint64) bool {
	for _, t := range tasks {
		if t.ID == id {
			return true
		}
	}
	return false
}

// expire removes workers with a slice past its deadline, requeueing
// their slices (paper §2.2: "that particular worker is removed from the
// list of available workers, and the tree that had been dispatched to
// that worker is sent to a different worker").
func (f *Foreman) expire() {
	if f.opt.TaskTimeout <= 0 {
		return
	}
	now := time.Now()
	for w, recs := range f.busy {
		expired := dispatchRecord{}
		hit := false
		for _, rec := range recs {
			if now.After(rec.deadline) {
				expired, hit = rec, true
				break
			}
		}
		if !hit {
			continue
		}
		// One overdue slice condemns the worker: everything else queued
		// behind it on that worker would stall too, so requeue the lot.
		f.dead[w] = true
		f.dropReady(w)
		f.dropBusy(w)
		head := expired.tasks[0]
		f.opt.Obs.TimedOut(w, head.Job, head.Round, head.ID)
		f.depths()
	}
}
