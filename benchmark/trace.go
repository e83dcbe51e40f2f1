package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls into each layer (the dispatcher, Evaluate, the likelihood.Engine
// methods), kept in memory, and written out when the run ends. Spans
// inside the program are a later issue (ROADMAP 5).

// Span layers, outermost first. A layer's self time is the time covered
// by its spans minus the time covered by the next layer's spans, so the
// four self times partition the search span exactly — on one goroutine or
// on several, where "covered" is the union over all of them.
const (
	layerSearch = iota // one mlsearch search, on the master
	layerRound         // one dispatch round (Dispatch call, or foreman RoundStarted→RoundCompleted)
	layerTask          // one Evaluator.Evaluate call, on whichever worker ran it
	layerEngine        // one likelihood.Engine call inside it
	numLayers
)

var layerNames = [numLayers]string{"search", "round", "task", "engine"}

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent indexes the enclosing span in the written file
// (-1 for the root).
type span struct {
	Layer  int    `json:"-"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Worker int    `json:"worker"`
	// Round ties task spans to their round span.
	Round uint64 `json:"round,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanBuf is one goroutine's private span list: the master, each worker,
// and each traced engine own one, so recording takes no lock.
type spanBuf struct {
	worker int
	epoch  time.Time
	spans  []span
}

func (b *spanBuf) add(layer int, name string, start, end time.Time, round uint64) {
	b.spans = append(b.spans, span{
		Layer: layer, Name: name, Worker: b.worker, Round: round,
		Start: int64(start.Sub(b.epoch)), End: int64(end.Sub(b.epoch)),
	})
}

// tracer collects the buffers of one traced search.
type tracer struct {
	id    uint64
	epoch time.Time

	mu   sync.Mutex
	bufs []*spanBuf
	// engines are the traced engines built while this tracer was
	// active; their inner counters are read once the run has ended.
	engines []*tracedEngine
}

var traceIDs atomic.Uint64

func newTracer() *tracer {
	return &tracer{id: traceIDs.Add(1), epoch: time.Now()}
}

// buf registers a new private buffer for the goroutine identified by
// worker (0 = master, ranks otherwise).
func (t *tracer) buf(worker int) *spanBuf {
	b := &spanBuf{worker: worker, epoch: t.epoch}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// activeTracer is where the registered "benchtrace" engine factory finds
// the tracer of the search being run: likelihood.Factory has no context
// argument, and Local/TCP workers build their engines on their own
// goroutines. Nil outside traced runs.
var activeTracer atomic.Pointer[tracer]

// all returns every span, ordered by layer then start. Call only after
// every goroutine that records has finished.
func (t *tracer) all() []span {
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// covered returns the total length of the union of the spans of one
// layer.
func covered(spans []span, layer int) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if s.Layer == layer && s.End > s.Start {
			ivs = append(ivs, iv{s.Start, s.End})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	first := true
	for _, v := range ivs {
		switch {
		case first || v.a > end:
			total += v.b - v.a
			end = v.b
			first = false
		case v.b > end:
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}

// selfTimes returns each layer's self time: its cover minus the next
// layer's cover.
func selfTimes(spans []span) [numLayers]time.Duration {
	var cov [numLayers + 1]time.Duration
	for l := 0; l < numLayers; l++ {
		cov[l] = covered(spans, l)
	}
	var self [numLayers]time.Duration
	for l := 0; l < numLayers; l++ {
		self[l] = cov[l] - cov[l+1]
	}
	return self
}

// linkParents fills Parent for the written trace: rounds hang off the
// search, tasks off their round, engine calls off the task that encloses
// them. An engine's buffer does not know which worker built it (the
// factory gets no context), so each engine buffer — Worker < 0 — is first
// matched to the worker whose task spans enclose the most of its calls.
// spans must come from all().
func linkParents(spans []span) {
	root := -1
	rounds := map[uint64]int{}
	tasks := map[int][]int{} // worker -> task span indices, by start
	engines := map[int][]int{}
	for i := range spans {
		spans[i].Parent = -1
		switch spans[i].Layer {
		case layerSearch:
			root = i
		case layerRound:
			spans[i].Parent = root
			rounds[spans[i].Round] = i
		case layerTask:
			if r, ok := rounds[spans[i].Round]; ok {
				spans[i].Parent = r
			}
			tasks[spans[i].Worker] = append(tasks[spans[i].Worker], i)
		case layerEngine:
			engines[spans[i].Worker] = append(engines[spans[i].Worker], i)
		}
	}
	// enclosing returns the task of worker w during which call i ended,
	// or -1. A Local or TCP worker's task span is placed from its reply
	// time and Eval duration, a microsecond late, so a short call made at
	// the very start of a task can end just before the span begins: such a
	// call belongs to the task starting within taskSlack after it.
	const taskSlack = 5_000 // ns
	enclosing := func(w, i int) int {
		ts := tasks[w]
		end := spans[i].End
		k := sort.Search(len(ts), func(k int) bool { return spans[ts[k]].Start > end })
		if k > 0 && spans[ts[k-1]].End >= end {
			return ts[k-1]
		}
		if k < len(ts) && spans[ts[k]].Start-end <= taskSlack {
			return ts[k]
		}
		return -1
	}
	for _, calls := range engines {
		best, bestHits := 0, -1
		for w := range tasks {
			hits := 0
			for _, i := range calls {
				if enclosing(w, i) >= 0 {
					hits++
				}
			}
			if hits > bestHits || (hits == bestHits && w < best) {
				best, bestHits = w, hits
			}
		}
		for _, i := range calls {
			spans[i].Worker = best
			spans[i].Parent = enclosing(best, i)
		}
	}
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string      `json:"workload"`
	TraceID  uint64      `json:"trace_id"`
	Layers   []string    `json:"layers"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	span
	Layer string `json:"layer"`
}

// writeTrace writes the spans of one traced run, Parent already filled,
// to <dir>/trace-<name>.json. layers names the values of span.Layer.
func writeTrace(dir, name string, id uint64, layers []string, spans []span) error {
	f := traceFile{Workload: name, TraceID: id, Layers: layers}
	for _, s := range spans {
		f.Spans = append(f.Spans, traceSpan{span: s, Layer: layers[s.Layer]})
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), data, 0o644)
}
