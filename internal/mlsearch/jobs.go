package mlsearch

import (
	"fmt"
	"sync"

	"repro/internal/comm"
)

// The master (paper §2.2): "generates and compares trees. It generates
// new tree topologies (in steps 2-5) and sends these trees to the
// foreman. It receives back from the foreman the best tree at the end of
// each round of comparison." Search does the generating and comparing;
// this file is the sending and receiving.
//
// Master-side job multiplexing. Several Search instances (jumbles,
// bootstrap replicates) run concurrently as goroutines, each driving its
// own Dispatcher; all of them share one communicator to the foreman. The
// comm contract allows at most one goroutine to block in Recv on an
// endpoint at a time, so the mux uses a leader/followers protocol: a
// token (a 1-buffered channel) elects whichever waiting dispatcher grabs
// it as the receiver for everyone. The leader pulls one control reply
// off the wire, routes it to the waiter registered under the reply's job
// id, returns the token, and loops until its own reply arrives. No
// standing receiver goroutine exists, so an idle mux holds no resources
// and needs no Close.

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

// muxReply is what a waiting dispatcher receives: its round reply or the
// transport error that ended the run.
type muxReply struct {
	reply roundReply
	err   error
}

// JobMux is the master side of the multi-job protocol: it assigns job
// ids, sends round batches tagged with them, and demultiplexes the
// foreman's replies back to the dispatcher that is waiting on each job.
type JobMux struct {
	c   comm.Communicator
	lay Layout

	mu      sync.Mutex
	nextJob uint64
	waiters map[uint64]chan muxReply
	err     error // sticky transport error; fails all future dispatches

	// token elects the receiving leader; holds exactly one value when no
	// dispatcher is receiving.
	token chan struct{}

	shutdownOnce sync.Once
	shutdownErr  error
}

// NewJobMux builds the mux over the master's communicator.
func NewJobMux(c comm.Communicator, lay Layout) (*JobMux, error) {
	if err := lay.Validate(); err != nil {
		return nil, err
	}
	if c.Rank() != lay.Master {
		return nil, fmt.Errorf("mlsearch: job mux on rank %d, layout says master is %d", c.Rank(), lay.Master)
	}
	m := &JobMux{c: c, lay: lay, waiters: map[uint64]chan muxReply{}, token: make(chan struct{}, 1)}
	m.token <- struct{}{}
	return m, nil
}

// NewDispatcher implements dispatcherSource: each call opens a fresh job
// lane (ids start at 1; 0 is what an envelope without the job extension
// decodes to).
func (m *JobMux) NewDispatcher() (Dispatcher, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	m.nextJob++
	return &JobDispatcher{mux: m, job: m.nextJob}, nil
}

// Shutdown tells the foreman to stop, which cascades to workers and the
// monitor. Safe to call once all searches have finished; concurrent
// dispatches after Shutdown fail.
func (m *JobMux) Shutdown() error {
	m.shutdownOnce.Do(func() {
		m.shutdownErr = m.c.Send(m.lay.Foreman, comm.TagShutdown, nil)
	})
	return m.shutdownErr
}

// dispatch sends one round batch for a job and blocks until its reply
// arrives, receiving on behalf of other jobs while it waits.
func (m *JobMux) dispatch(job, round uint64, tasks []Task) (roundReply, error) {
	ch := make(chan muxReply, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return roundReply{}, err
	}
	if _, dup := m.waiters[job]; dup {
		m.mu.Unlock()
		return roundReply{}, fmt.Errorf("mlsearch: job %d already has a round in flight", job)
	}
	m.waiters[job] = ch
	m.mu.Unlock()

	batch := roundBatch{Round: round, Tasks: tasks, Job: job}
	if err := m.c.Send(m.lay.Foreman, comm.TagControl, marshalRoundBatch(batch)); err != nil {
		m.mu.Lock()
		delete(m.waiters, job)
		m.mu.Unlock()
		return roundReply{}, fmt.Errorf("mlsearch: master send: %w", err)
	}

	for {
		select {
		case r := <-ch:
			return r.reply, r.err
		case <-m.token:
			// Leader: our reply may have been routed while we were
			// waiting for the token — check before blocking in Recv.
			select {
			case r := <-ch:
				m.token <- struct{}{}
				return r.reply, r.err
			default:
			}
			if err := m.recvOne(); err != nil {
				m.fail(err)
			}
			m.token <- struct{}{}
		}
	}
}

// recvOne pulls one control reply off the wire and routes it.
func (m *JobMux) recvOne() error {
	msg, err := m.c.Recv(m.lay.Foreman, comm.TagControl)
	if err != nil {
		return fmt.Errorf("mlsearch: master receive: %w", err)
	}
	reply, err := unmarshalRoundReply(msg.Data)
	if err != nil {
		return err
	}
	m.mu.Lock()
	ch := m.waiters[reply.Job]
	delete(m.waiters, reply.Job)
	m.mu.Unlock()
	if ch != nil {
		ch <- muxReply{reply: reply}
	}
	return nil
}

// fail records a sticky error and wakes every waiting dispatcher with it.
func (m *JobMux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	for job, ch := range m.waiters {
		delete(m.waiters, job)
		ch <- muxReply{err: m.err}
	}
	m.mu.Unlock()
}

// JobDispatcher is one search's lane through a JobMux: the Dispatcher of
// the parallel runtime. Rounds are numbered per lane, and every task is
// stamped with the lane's job id.
type JobDispatcher struct {
	mux   *JobMux
	job   uint64
	round uint64
}

// Job returns the lane's job id.
func (d *JobDispatcher) Job() uint64 { return d.job }

// Dispatch implements Dispatcher: one batch to the foreman, one reply
// back. A candidate whose evaluation failed fails the round with its
// cause; the lane, the foreman and the workers remain usable.
func (d *JobDispatcher) Dispatch(tasks []Task) ([]Result, error) {
	d.round++
	for i := range tasks {
		tasks[i].Job = d.job
	}
	reply, err := d.mux.dispatch(d.job, d.round, tasks)
	if err != nil {
		return nil, err
	}
	if reply.Round != d.round {
		return nil, fmt.Errorf("mlsearch: job %d reply for round %d, expected %d", d.job, reply.Round, d.round)
	}
	for _, r := range reply.Results {
		if r.Err != "" {
			return nil, fmt.Errorf("mlsearch: job %d: evaluating task %d on worker %d: %s", d.job, r.TaskID, r.Worker, r.Err)
		}
	}
	return reply.Results, nil
}
