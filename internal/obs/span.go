package obs

import (
	"fmt"
	"time"
)

// Trace spans. A SpanContext is the pair of identifiers that travels
// inside Task/Reply envelopes so one task can be followed master →
// foreman → worker → kernel: the TraceID names the whole run (or search),
// the SpanID names the individual task. Per-phase latency (queue wait,
// serialize, network, CLV compute, Newton iterations) is attributed to
// the span by whichever process measured it, and the run observer keeps
// the most recent completed spans for the /status endpoint.

// SpanContext identifies one traced unit of work. The zero value means
// "untraced" and costs nothing to carry.
type SpanContext struct {
	// TraceID groups every span of one run.
	TraceID uint64
	// SpanID identifies this span within the trace.
	SpanID uint64
}

// Valid reports whether the context carries a trace.
func (c SpanContext) Valid() bool { return c.TraceID != 0 || c.SpanID != 0 }

// String renders "trace/span" in hex, or "-" for the zero context.
func (c SpanContext) String() string {
	if !c.Valid() {
		return "-"
	}
	return fmt.Sprintf("%016x/%016x", c.TraceID, c.SpanID)
}

// NewTrace mints a fresh trace root.
func NewTrace() SpanContext {
	id := NewID()
	return SpanContext{TraceID: id, SpanID: id}
}

// Child mints a child span within the same trace.
func (c SpanContext) Child() SpanContext {
	if !c.Valid() {
		return NewTrace()
	}
	return SpanContext{TraceID: c.TraceID, SpanID: NewID()}
}

// Span phases measured by the runtime. Each is one segment of a task's
// life; together they account the paper's dispatch/evaluation/
// communication breakdown (§4).
const (
	// PhaseQueue is time spent waiting in the foreman's work queue.
	PhaseQueue = "queue"
	// PhaseRTT is dispatch-to-result time seen by the foreman (network
	// both ways plus evaluation).
	PhaseRTT = "rtt"
	// PhaseEval is the worker's evaluation time (CLV compute plus Newton
	// iterations), carried back in the reply envelope.
	PhaseEval = "eval"
	// PhaseNetwork is the derived network share: RTT minus evaluation.
	PhaseNetwork = "network"
)

// SpanRecord is one completed span with its measured phases, as rendered
// in /status snapshots.
type SpanRecord struct {
	// Trace and Span are the hex forms of the span's SpanContext.
	Trace string `json:"trace"`
	Span  string `json:"span"`
	// Name labels what the span was (e.g. "task").
	Name string `json:"name"`
	// Worker is the rank that executed the span (-1 for inline).
	Worker int `json:"worker"`
	// Round is the dispatch round the span belongs to.
	Round uint64 `json:"round"`
	// End is when the span completed.
	End time.Time `json:"end"`
	// PhasesMs maps phase name to milliseconds.
	PhasesMs map[string]float64 `json:"phases_ms"`
}

// PhaseMs converts a duration to the milliseconds stored in span
// records and JSON snapshots, preserving sub-millisecond precision.
func PhaseMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
