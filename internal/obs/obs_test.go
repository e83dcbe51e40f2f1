package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	g := r.Gauge("test_gauge", "a gauge")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(float64(j))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %v, want 8000", c.Value())
	}
	if g.Value() != 999 {
		t.Errorf("gauge = %v, want 999 (every writer's last Set)", g.Value())
	}
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Errorf("gauge after Set = %v, want -2.5", g.Value())
	}
	c.Add(-5) // counters ignore negative deltas
	if c.Value() != 8000 {
		t.Errorf("counter after negative Add = %v, want 8000", c.Value())
	}
}

func TestRegistrySameSeriesSharedHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "help")
	b := r.Counter("shared_total", "help")
	a.Inc()
	b.Inc()
	if a != b || a.Value() != 2 {
		t.Errorf("re-registration must return the same series (got %v)", a.Value())
	}
	v := r.CounterVec("labeled_total", "help", "worker")
	v.With("3").Add(4)
	if got := v.With("3").Value(); got != 4 {
		t.Errorf("labeled series = %v, want 4", got)
	}
}

func TestNilRegistryHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h")
	g := r.Gauge("x", "h")
	h := r.Histogram("x_seconds", "h", nil)
	cv := r.CounterVec("xv_total", "h", "l")
	hv := r.HistogramVec("xv_seconds", "h", nil, "l")
	// None of these may panic.
	r.CounterFunc("xf_total", "h", nil, func(Emit) { t.Error("a nil registry called a reader") })
	r.GaugeFunc("xf", "h", nil, func(Emit) { t.Error("a nil registry called a reader") })
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(0.5)
	cv.With("a").Inc()
	hv.With("a").Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil-registry handles must stay zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 55.55; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="10"} 3`,
		`lat_seconds_bucket{le="+Inf"} 4`,
		`lat_seconds_sum 55.55`,
		`lat_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests served").Add(3)
	r.GaugeFunc("depth", "queue depth", []string{"queue"}, func(emit Emit) {
		emit(7, `a"b\c`)
		emit(0, "idle")
	})
	r.CounterFunc("unread_total", "a reader that emits nothing", nil, func(Emit) {})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP reqs_total requests served\n",
		"# TYPE reqs_total counter\n",
		"reqs_total 3\n",
		"# TYPE depth gauge\n",
		`depth{queue="a\"b\\c"} 7` + "\n",
		`depth{queue="idle"} 0` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "unread_total") {
		t.Errorf("a read family with no series rendered:\n%s", out)
	}
}

// TestRegistryRedeclarationPanics: a family declared twice must agree in
// kind, label names and buckets, and a read family takes no second
// reader and no handle. At the parent the first three rendered a stray
// unlabeled series, kept the first buckets, and died with a bare
// interface-conversion panic.
func TestRegistryRedeclarationPanics(t *testing.T) {
	read := func(Emit) {}
	for _, tc := range []struct {
		name        string
		first, then func(r *Registry)
	}{
		{"counter vec then counter",
			func(r *Registry) { r.CounterVec("y_total", "h", "worker") },
			func(r *Registry) { r.Counter("y_total", "h") }},
		{"histogram with other buckets",
			func(r *Registry) { r.Histogram("y_seconds", "h", []float64{1, 10}) },
			func(r *Registry) { r.Histogram("y_seconds", "h", []float64{1, 5, 10}) }},
		{"gauge then counter",
			func(r *Registry) { r.Gauge("y", "h") },
			func(r *Registry) { r.Counter("y", "h") }},
		{"second reader",
			func(r *Registry) { r.GaugeFunc("y", "h", nil, read) },
			func(r *Registry) { r.GaugeFunc("y", "h", nil, read) }},
		{"handle on a read family",
			func(r *Registry) { r.CounterFunc("y_total", "h", []string{"worker"}, read) },
			func(r *Registry) { r.CounterVec("y_total", "h", "worker") }},
		{"reader on a handle family",
			func(r *Registry) { r.Gauge("y", "h") },
			func(r *Registry) { r.GaugeFunc("y", "h", nil, read) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.first(r)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "obs: metric y") {
					t.Errorf("re-declaration: panic %q, want one naming the family", msg)
				}
			}()
			tc.then(r)
		})
	}
}

func TestBusSubscribeAndTyped(t *testing.T) {
	type evA struct{ N int }
	type evB struct{ S string }
	b := NewBus()
	var all []any
	unsubAll := b.Subscribe(func(e any) { all = append(all, e) })
	var as []evA
	unsubA := SubscribeTo(b, func(e evA) { as = append(as, e) })
	b.Publish(evA{1})
	b.Publish(evB{"x"})
	if len(all) != 2 || len(as) != 1 || as[0].N != 1 {
		t.Fatalf("delivery wrong: all=%d as=%v", len(all), as)
	}
	unsubA()
	unsubA() // idempotent
	b.Publish(evA{2})
	if len(as) != 1 {
		t.Error("unsubscribed handler still fired")
	}
	if len(all) != 3 {
		t.Error("remaining handler missed an event")
	}
	unsubAll()

	var nilBus *Bus
	nilBus.Publish(evA{3}) // must not panic
	nilBus.Subscribe(func(any) {})()
}

func TestSpanContext(t *testing.T) {
	root := NewTrace()
	if !root.Valid() {
		t.Fatal("NewTrace must be valid")
	}
	child := root.Child()
	if child.TraceID != root.TraceID || child.SpanID == root.SpanID {
		t.Errorf("child must share trace and differ in span: %v vs %v", child, root)
	}
}

func TestStatusServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "test").Inc()
	srv, err := NewStatusServer(StatusOptions{
		Addr:     "127.0.0.1:0",
		Registry: r,
		Snapshot: func() any { return map[string]int{"round": 7} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr().String()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "up_total 1") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	var status map[string]int
	if err := json.Unmarshal([]byte(get("/status")), &status); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if status["round"] != 7 {
		t.Errorf("/status = %v, want round 7", status)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestBenchWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	started := time.Now().Add(-2 * time.Second)
	path, err := WriteBench(dir, BenchReport{
		Run:       "chaos soak #1/seed=5",
		StartedAt: started,
		Totals:    map[string]float64{"tasks": 42, "lnl": -1234.5},
		Details:   map[string]any{"workers": []int{1, 2, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := filepath.Base(path), "BENCH_chaos_soak__1_seed_5.json"; got != want {
		t.Errorf("file name = %q, want %q", got, want)
	}
	rep, err := ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Run != "chaos soak #1/seed=5" || rep.Totals["tasks"] != 42 {
		t.Errorf("round-trip mismatch: %+v", rep)
	}
	if rep.FinishedAt.IsZero() || rep.WallMs <= 0 {
		t.Errorf("WriteBench must stamp FinishedAt/WallMs, got %v / %v", rep.FinishedAt, rep.WallMs)
	}
}

func TestLockedWriterNoInterleaving(t *testing.T) {
	var buf bytes.Buffer
	w := NewLockedWriter(&buf)
	if NewLockedWriter(w) != w {
		t.Error("wrapping a LockedWriter must be idempotent")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				fmt.Fprintf(w, "writer=%d line=%d end\n", i, j)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("got %d lines, want 800", len(lines))
	}
	for _, line := range lines {
		var wr, ln int
		if _, err := fmt.Sscanf(line, "writer=%d line=%d end", &wr, &ln); err != nil {
			t.Fatalf("interleaved line %q", line)
		}
	}

	var nilW *LockedWriter
	if n, err := nilW.Write([]byte("x")); n != 1 || err != nil {
		t.Error("nil LockedWriter must discard")
	}
	NewLockedWriter(nil).Write([]byte("x"))
}

func TestNewIDNonZeroAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned 0")
		}
		if seen[id] {
			t.Fatalf("NewID repeated %x", id)
		}
		seen[id] = true
	}
}
