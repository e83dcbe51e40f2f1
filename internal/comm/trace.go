package comm

import (
	"sync"
	"time"
)

// Trace wraps a Communicator and records every send and receive, making
// protocol tests able to assert on message flows.

// TraceEvent records one message passing through a traced endpoint.
type TraceEvent struct {
	// When is the local wall-clock time of the operation.
	When time.Time
	// Sent is true for a Send, false for a completed Recv.
	Sent bool
	// Peer is the other rank (destination for sends, source for
	// receives).
	Peer int
	// Tag is the message tag.
	Tag Tag
	// Bytes is the payload size.
	Bytes int
}

// Traced wraps inner so every successful Send/Recv appends a TraceEvent.
type Traced struct {
	inner Communicator

	mu     sync.Mutex
	events []TraceEvent
}

// NewTraced wraps a communicator with tracing.
func NewTraced(inner Communicator) *Traced {
	return &Traced{inner: inner}
}

// Events returns a copy of the recorded events.
func (t *Traced) Events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// Counts returns the number of sends and receives recorded.
func (t *Traced) Counts() (sends, recvs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.events {
		if e.Sent {
			sends++
		} else {
			recvs++
		}
	}
	return
}

// BytesMoved returns total payload bytes sent and received.
func (t *Traced) BytesMoved() (sent, received int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.events {
		if e.Sent {
			sent += e.Bytes
		} else {
			received += e.Bytes
		}
	}
	return
}

func (t *Traced) record(e TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Rank implements Communicator.
func (t *Traced) Rank() int { return t.inner.Rank() }

// Size implements Communicator.
func (t *Traced) Size() int { return t.inner.Size() }

// Send implements Communicator.
func (t *Traced) Send(to int, tag Tag, data []byte) error {
	err := t.inner.Send(to, tag, data)
	if err == nil {
		t.record(TraceEvent{When: time.Now(), Sent: true, Peer: to, Tag: tag, Bytes: len(data)})
	}
	return err
}

// Recv implements Communicator.
func (t *Traced) Recv(from int, tag Tag) (Message, error) {
	m, err := t.inner.Recv(from, tag)
	if err == nil {
		t.record(TraceEvent{When: time.Now(), Sent: false, Peer: m.From, Tag: m.Tag, Bytes: len(m.Data)})
	}
	return m, err
}

// RecvTimeout implements Communicator.
func (t *Traced) RecvTimeout(from int, tag Tag, d time.Duration) (Message, error) {
	m, err := t.inner.RecvTimeout(from, tag, d)
	if err == nil {
		t.record(TraceEvent{When: time.Now(), Sent: false, Peer: m.From, Tag: m.Tag, Bytes: len(m.Data)})
	}
	return m, err
}

// Close implements Communicator.
func (t *Traced) Close() error { return t.inner.Close() }
