package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics registry: named families of counters, gauges, and fixed-bucket
// histograms, each family optionally labeled, rendered in the Prometheus
// text exposition format. Series handles are cheap to hold and safe for
// concurrent use (atomic operations on the hot path, a mutex only on
// first access of a labeled series). A read family (CounterFunc,
// GaugeFunc) has no handles: its reader emits the series from state kept
// elsewhere each time the registry renders, so the value is never a
// second copy of that state.

// metricKind is the family type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one. Nil-safe, so instrumented code needs no sink checks.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored; counters only go up).
func (c *Counter) Add(delta float64) {
	if c == nil || delta < 0 {
		return
	}
	addFloat(&c.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds delta to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// DefBuckets are general-purpose latency buckets in seconds, mirroring
// the Prometheus client default.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// family is one named metric with zero or more labeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string  // label names, fixed at registration
	bounds []float64 // histogram bucket bounds
	// read, set for a read family, emits its series at render time; such
	// a family holds no series of its own.
	read func(Emit)

	mu     sync.Mutex
	series map[string]any // rendered label key -> *Counter/*Gauge/*Histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use, and a nil
// *Registry returns nil handles, which are themselves nil-safe — so an
// uninstrumented run pays only a nil check per metric site.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family returns the family named name, registering it on first use. A
// second declaration must match the first in kind, label names and
// buckets, and a read family takes neither a second reader nor a handle:
// either is a bug in the caller, so it panics naming the family.
func (r *Registry) family(name, help string, kind metricKind, labels []string, bounds []float64, read func(Emit)) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !slices.Equal(f.labels, labels) || !slices.Equal(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %s declared as %s labels %q buckets %v, then as %s labels %q buckets %v",
				name, f.kind, f.labels, f.bounds, kind, labels, bounds))
		}
		if f.read != nil || read != nil {
			panic(fmt.Sprintf("obs: metric %s is a read family: it takes one reader and no handles", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds, read: read, series: map[string]any{}}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// seriesFor returns (creating if needed) the series for the label values.
func (f *family) seriesFor(values []string, make func() any) any {
	key := renderLabels(f.labels, values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := make()
	f.series[key] = s
	return s
}

// Counter returns the unlabeled counter named name, registering it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter, nil, nil, nil)
	return f.seriesFor(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec declares a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, kindCounter, labels, nil, nil)}
}

// Gauge returns the unlabeled gauge named name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindGauge, nil, nil, nil)
	return f.seriesFor(nil, func() any { return &Gauge{} }).(*Gauge)
}

// Emit writes one series of a read family: its value and its label
// values, in the family's label order.
type Emit func(v float64, labelValues ...string)

// CounterFunc declares a read counter family: each render calls read,
// which emits the family's series from the state that counts them.
func (r *Registry) CounterFunc(name, help string, labels []string, read func(Emit)) {
	if r != nil {
		r.family(name, help, kindCounter, labels, nil, read)
	}
}

// GaugeFunc declares a read gauge family (see CounterFunc).
func (r *Registry) GaugeFunc(name, help string, labels []string, read func(Emit)) {
	if r != nil {
		r.family(name, help, kindGauge, labels, nil, read)
	}
}

// Histogram returns the unlabeled histogram named name with the given
// bucket upper bounds (nil uses DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.family(name, help, kindHistogram, nil, buckets, nil)
	return f.seriesFor(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec declares a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, labels, buckets, nil)}
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// CounterVec is a labeled counter family handle.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.seriesFor(values, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a labeled histogram family handle.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.seriesFor(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// renderLabels formats {a="x",b="y"} for the series key; empty for an
// unlabeled series. Missing values render empty; extras are dropped.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families in registration order, each family's
// series in label order.
// Readers run here, with no registry lock held.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	series := map[string]any{} // *Counter, *Gauge, *Histogram, or a read family's float64
	if f.read != nil {
		f.read(func(v float64, values ...string) { series[renderLabels(f.labels, values)] = v })
	} else {
		f.mu.Lock()
		maps.Copy(series, f.series)
		f.mu.Unlock()
	}
	if len(series) == 0 {
		return nil
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, key := range keys {
		switch s := series[key].(type) {
		case interface{ Value() float64 }: // *Counter, *Gauge
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(s.Value())); err != nil {
				return err
			}
		case float64:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(s)); err != nil {
				return err
			}
		case *Histogram:
			if err := writeHistogram(w, f.name, key, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket/_sum/_count triplet.
func writeHistogram(w io.Writer, name, key string, h *Histogram) error {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(key, "le", formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(key, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, key, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, key, h.count.Load())
	return err
}

// mergeLabel appends one label pair to an already-rendered label set.
func mergeLabel(key, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if key == "" {
		return "{" + pair + "}"
	}
	return key[:len(key)-1] + "," + pair + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
