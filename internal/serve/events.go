package serve

import (
	"sync"
	"time"
)

// Per-job event streams. Every job owns an event log; the runner
// appends state transitions, round progress, and checkpoint
// acknowledgements to it, and GET /v1/jobs/{id}/events reads it by
// position from the start until the job reaches a terminal state.

// Event is one line of a job's NDJSON event stream.
type Event struct {
	// Type is "state", "progress", or "checkpoint".
	Type string    `json:"type"`
	Time time.Time `json:"time"`
	// State is set on "state" events.
	State JobState `json:"state,omitempty"`
	// Error carries the failure reason on terminal "state" events.
	Error string `json:"error,omitempty"`
	// The search position, on "progress" and "checkpoint" events.
	Jumble     int     `json:"jumble,omitempty"`
	Kind       string  `json:"kind,omitempty"`
	TaxaInTree int     `json:"taxa_in_tree,omitempty"`
	BestLnL    float64 `json:"best_lnl,omitempty"`
}

// eventHistory bounds the log's window; a long search's stream is a
// window, not an archive.
const eventHistory = 256

// eventLog is a job's append-only event log, read by position. Appending
// never blocks and never waits for a follower: a follower that falls
// more than eventHistory events behind resumes at the window's start.
type eventLog struct {
	mu     sync.Mutex
	window []Event // positions start … start+len(window)-1
	start  int
	wake   chan struct{} // closed on the next append or close; nil until a follower waits
	closed bool
}

// append adds e at the log's next position; a closed log ignores it.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.window = append(l.window, e)
	if over := len(l.window) - eventHistory; over > 0 {
		// Reslice rather than copy down: an event is never overwritten
		// in place, so a window handed out by since stays valid.
		l.window = l.window[over:]
		l.start += over
	}
	l.signal()
}

// close ends the log: followers read what it holds and stop. Its
// window stays readable.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.signal()
}

// signal wakes every follower waiting on the log; l.mu is held.
func (l *eventLog) signal() {
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
}

// since returns the events from position next on (from the window's
// start if next has left it), the position after them, whether the log
// has ended, and a channel closed by the next append or close. The
// returned events must not be modified.
func (l *eventLog) since(next int) (evs []Event, after int, ended bool, wake <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil && !l.closed {
		l.wake = make(chan struct{})
	}
	n := len(l.window)
	return l.window[max(next-l.start, 0):n:n], l.start + n, l.closed, l.wake
}
