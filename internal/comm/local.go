package comm

import (
	"fmt"
	"sync"
	"time"
)

// In-process endpoints: every rank a process hosts is a mailbox with a
// notification channel, whatever the transport. A local world (NewLocal)
// hosts all of its ranks — the default for single-machine parallel runs
// (the workers are goroutines), and deterministic, dependency-free
// message passing for the tests. A TCP world's hosting process gets the
// same endpoints for the ranks it hosts; a send to any other rank falls
// through to the world's router (tcp.go).

// mailbox holds undelivered messages for one rank.
type mailbox struct {
	mu     sync.Mutex
	queue  []Message
	closed bool
	// arrived is pulsed (non-blockingly) whenever the queue or closed
	// state changes, waking at least one waiting receiver.
	arrived chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{arrived: make(chan struct{}, 1)}
}

func (mb *mailbox) pulse() {
	select {
	case mb.arrived <- struct{}{}:
	default:
	}
}

// put appends a message, which the mailbox then owns, and wakes the
// receiver. It reports false, leaving m with the caller, when the
// mailbox is closed.
func (mb *mailbox) put(m Message) bool {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return false
	}
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.pulse()
	return true
}

// close marks the mailbox closed; blocked receives return ErrClosed once
// the queue holds nothing they match.
func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.pulse()
}

// localComm is the endpoint of one rank hosted by this process. boxes
// holds the mailbox of every hosted rank (ranks 0..len(boxes)-1); router
// is nil in a local world, where those are all the ranks there are.
type localComm struct {
	rank   int
	boxes  []*mailbox
	router *tcpRouter
}

// hostedWorld returns one endpoint per rank 0..n-1 over fresh mailboxes.
func hostedWorld(n int, router *tcpRouter) ([]*mailbox, []Communicator) {
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox()
	}
	out := make([]Communicator, n)
	for i := range out {
		out[i] = &localComm{rank: i, boxes: boxes, router: router}
	}
	return boxes, out
}

// NewLocal creates an n-rank in-process world and returns one
// Communicator per rank. Closing an endpoint only affects that rank's
// mailbox.
func NewLocal(n int) ([]Communicator, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: local world size %d", n)
	}
	_, out := hostedWorld(n, nil)
	return out, nil
}

func (c *localComm) Rank() int { return c.rank }

func (c *localComm) Send(to int, tag Tag, data []byte) error {
	if to >= len(c.boxes) && c.router != nil {
		return c.router.forward(c.rank, to, int32(tag), data)
	}
	if to < 0 || to >= len(c.boxes) {
		return fmt.Errorf("comm: send to rank %d of %d", to, len(c.boxes))
	}
	// Copy through the buffer pool: the receiver owns the copy and the
	// hot paths (worker task/result loops) recycle it after decoding.
	var cp []byte
	if len(data) > 0 {
		cp = GetBuf(len(data))
		copy(cp, data)
	}
	if !c.boxes[to].put(Message{From: c.rank, Tag: tag, Data: cp}) {
		PutBuf(cp)
		return ErrClosed
	}
	return nil
}

func (c *localComm) Recv(from int, tag Tag) (Message, error) {
	return recvMailbox(c.boxes[c.rank], from, tag, nil)
}

func (c *localComm) RecvTimeout(from int, tag Tag, d time.Duration) (Message, error) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	return recvMailbox(c.boxes[c.rank], from, tag, timer.C)
}

// Close closes this rank's mailbox; on rank 0 of a TCP world, which
// owns the router, it shuts the whole world down.
func (c *localComm) Close() error {
	c.boxes[c.rank].close()
	if c.router != nil && c.rank == 0 {
		c.router.shutdown()
	}
	return nil
}

// takeMatch removes and returns the first queued message matching the
// pattern. Caller holds the mailbox lock.
func takeMatch(mb *mailbox, from int, tag Tag) (Message, bool) {
	for i, m := range mb.queue {
		if matches(m, from, tag) {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return m, true
		}
	}
	return Message{}, false
}
