package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mlsearch"
	"repro/internal/obs"
)

// newTestServer starts a Server over a temp dir and an httptest front
// end for its API.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.DataDir == "" {
		opt.DataDir = t.TempDir()
	}
	if opt.Registry == nil {
		opt.Registry = obs.NewRegistry()
	}
	if opt.Fleet.Workers == 0 {
		opt.Fleet.Workers = 1
	}
	opt.Logf = t.Logf
	s, err := NewServer(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

// scrape reads a registry's exposition as /metrics serves it: every
// sample line's value, keyed by its series (name and labels).
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		series, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// postJob submits a spec over HTTP, returning the status code and
// decoded record.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (int, JobRecord) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rec JobRecord
	_ = json.NewDecoder(resp.Body).Decode(&rec)
	return resp.StatusCode, rec
}

// waitJob follows the job's event stream until the job reaches want (or
// any terminal state, which fails the test if it is the wrong one).
func waitJob(t *testing.T, s *Server, id string, want JobState) JobRecord {
	t.Helper()
	var rec JobRecord
	awaitJob(t, s, id, func(*Event) bool {
		rec = jobOf(t, s, id).snapshot()
		if rec.State != want && rec.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, rec.State, rec.Error, want)
		}
		return rec.State == want
	})
	return rec
}

// awaitJob calls until with nil, then with each event in the job's log
// from its start, until it reports true. Every state event is appended
// after the record changes, so until may read the job's state from the
// record. A log that ends or stays silent for two minutes fails the test.
func awaitJob(t *testing.T, s *Server, id string, until func(*Event) bool) {
	t.Helper()
	j := jobOf(t, s, id)
	timeout := time.After(120 * time.Second)
	if until(nil) {
		return
	}
	for next := 0; ; {
		evs, after, ended, wake := j.events.since(next)
		for i := range evs {
			if e := evs[i]; until(&e) {
				return
			}
		}
		if ended {
			t.Fatalf("job %s: event stream ended", id)
		}
		next = after
		select {
		case <-wake:
		case <-timeout:
			t.Fatalf("job %s: no awaited event within two minutes", id)
		}
	}
}

// jobOf returns the server's in-memory job.
func jobOf(t *testing.T, s *Server, id string) *job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	return j
}

// serialReference runs the same spec through the serial transport — the
// ground truth the service must match bit for bit.
func serialReference(t *testing.T, spec JobSpec) []*mlsearch.SearchResult {
	t.Helper()
	prep, err := prepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mlsearch.Run(prep.Cfg, mlsearch.RunOptions{
		Transport: mlsearch.Serial,
		Jumbles:   prep.Spec.Options.Jumbles,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Results
}

func TestServerEndToEndWithCache(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Options{Registry: reg, Fleet: FleetOptions{Workers: 2}})
	spec := JobSpec{
		Tenant:    "lab-a",
		Alignment: testPhylipText(t, 8, 200, 3),
		Options:   JobOptions{Seed: 5, Jumbles: 2},
	}

	code, rec := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if rec.CacheHit || rec.State.Terminal() {
		t.Fatalf("fresh submit: %+v", rec)
	}
	done := waitJob(t, s, rec.ID, StateDone)
	if done.CacheHit {
		t.Error("computed job marked cache hit")
	}

	// The stored result is bit-identical to a serial run.
	want := serialReference(t, spec)
	res, _, err := s.Result(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jumbles) != len(want) {
		t.Fatalf("%d jumble results, want %d", len(res.Jumbles), len(want))
	}
	for j, w := range want {
		got := res.Jumbles[j]
		if got.Newick != w.BestNewick || got.LnL != w.LnL || got.Seed != w.Seed {
			t.Errorf("jumble %d diverged from serial run:\n got %q lnL %v seed %d\nwant %q lnL %v seed %d",
				j, got.Newick, got.LnL, got.Seed, w.BestNewick, w.LnL, w.Seed)
		}
	}
	if res.Consensus == "" {
		t.Error("2-jumble result has no consensus")
	}

	// Duplicate submission: served from the result store with zero
	// fleet dispatches.
	before := scrape(t, reg)["fdml_dispatch_total"]
	code, dup := postJob(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("duplicate status %d, want 200", code)
	}
	if !dup.CacheHit || dup.State != StateDone || dup.ID == rec.ID {
		t.Fatalf("duplicate record: %+v", dup)
	}
	after := scrape(t, reg)["fdml_dispatch_total"]
	if after != before {
		t.Errorf("duplicate dispatched %v tasks", after-before)
	}

	// The duplicate's result endpoint serves the same tree.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/result?format=newick", ts.URL, dup.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tree bytes.Buffer
	_, _ = tree.ReadFrom(resp.Body)
	if strings.TrimSpace(tree.String()) != res.BestNewick {
		t.Errorf("newick result = %q, want %q", tree.String(), res.BestNewick)
	}

	// Tenant-labeled service metrics are exposed.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fdml_serve_submissions_total{tenant="lab-a"} 2`,
		`fdml_serve_cache_hits_total{tenant="lab-a"} 1`,
		`fdml_serve_jobs_total{tenant="lab-a",outcome="done"} 2`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestServerEventStream(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	spec := JobSpec{Alignment: testPhylipText(t, 7, 150, 9), Options: JobOptions{Seed: 3}}
	_, rec := postJob(t, ts, spec)
	waitJob(t, s, rec.ID, StateDone)

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Type != "state" || events[0].State != StateQueued {
		t.Errorf("first event %+v, want queued state", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Errorf("last event %+v, want done state", last)
	}
	progress := 0
	for _, e := range events {
		if e.Type == "progress" || e.Type == "checkpoint" {
			progress++
		}
	}
	if progress == 0 {
		t.Error("no progress/checkpoint events in the stream")
	}
}

func TestServerAdmissionAndCancel(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxActive: 1, MaxQueued: 1, MaxQueuedPerTenant: 1})
	aln := testPhylipText(t, 7, 150, 21)
	long := JobSpec{Tenant: "a", Alignment: aln, Options: JobOptions{Seed: 3, Jumbles: 300}}

	_, j1 := postJob(t, ts, long)
	waitJob(t, s, j1.ID, StateRunning)

	// One queue slot: the second job of tenant b fills it...
	spec2 := JobSpec{Tenant: "b", Alignment: aln, Options: JobOptions{Seed: 5, Jumbles: 300}}
	code, j2 := postJob(t, ts, spec2)
	if code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}
	// ...so a third is rejected with 429 + Retry-After.
	body, _ := json.Marshal(JobSpec{Tenant: "c", Alignment: aln, Options: JobOptions{Seed: 7}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cancel the queued job: immediate transition.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, j2.ID), nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if rec := waitJob(t, s, j2.ID, StateCanceled); rec.Error == "" {
		t.Log("queued cancel recorded without reason (fine)")
	}

	// Cancel the running job: it stops at the next round boundary.
	if _, err := s.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, j1.ID, StateCanceled)

	// Rejection metrics carry the tenant and reason.
	var prom bytes.Buffer
	_ = s.reg.WritePrometheus(&prom)
	if !strings.Contains(prom.String(), `fdml_serve_rejections_total{tenant="c",reason="queue_full"} 1`) {
		t.Error("metrics missing the labeled rejection")
	}
}

// TestCancelAfterPopEndsCanceled: a job canceled after the dispatcher
// has popped it, but before it runs, is still queued when Cancel looks.
// It must end canceled — once, with no stored result — rather than be
// finalized canceled by Cancel and then run to done.
func TestCancelAfterPopEndsCanceled(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	popped := make(chan struct{})
	release := make(chan struct{})
	s.popped = func(*job) {
		close(popped)
		<-release
	}
	spec := JobSpec{Tenant: "a", Alignment: testPhylipText(t, 6, 120, 9), Options: JobOptions{Seed: 3}}
	rec, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-popped
	if _, err := s.Cancel(rec.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	// Let the popped job run its course, then Close, which waits for
	// runJob to return: a job finalized canceled by Cancel and then run
	// to done would read done below.
	waitJob(t, s, rec.ID, StateCanceled)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("job canceled after its pop ended %s", got.State)
	}
	var prom bytes.Buffer
	_ = s.reg.WritePrometheus(&prom)
	if m := prom.String(); !strings.Contains(m, `fdml_serve_jobs_total{tenant="a",outcome="canceled"} 1`) ||
		strings.Contains(m, `outcome="done"`) {
		t.Errorf("want exactly one outcome, canceled:\n%s", m)
	}
}

// TestFinishingJobFreesItsPodFirst: a job gives its pod back before its
// job slot, so the job the dispatcher pops into that slot finds the pod
// slot free too. One pod slot and one job slot, three jobs queued behind
// each other: A and C on one dataset, B on another. A's end is held
// where it logs its outcome until the dispatcher has acted on the slot A
// freed; were A's pod still held then, B would wait for a pod. The jobs
// must run in submission order, and none may wait.
func TestFinishingJobFreesItsPodFirst(t *testing.T) {
	var (
		mu       sync.Mutex
		waits    []string
		runs     int
		finished sync.Once
		acted    sync.Once
	)
	queued := make(chan struct{})
	dispatched := make(chan struct{}) // closed once B runs or waits
	s, err := NewServer(Options{
		DataDir:   t.TempDir(),
		MaxActive: 1,
		Fleet:     FleetOptions{Workers: 1, MaxPods: 1},
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			t.Log(line)
			switch {
			case strings.Contains(line, ": running on pod"):
				mu.Lock()
				runs++
				first := runs == 1
				mu.Unlock()
				if first {
					<-queued
				} else {
					acted.Do(func() { close(dispatched) })
				}
			case strings.HasSuffix(line, ": done"):
				finished.Do(func() { <-dispatched })
			case strings.Contains(line, "waiting for a pod"):
				mu.Lock()
				waits = append(waits, line)
				mu.Unlock()
				acted.Do(func() { close(dispatched) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, y := testPhylipText(t, 6, 80, 1), testPhylipText(t, 6, 80, 2)
	var ids []string
	for i, align := range []string{x, y, x} {
		rec, err := s.Submit(JobSpec{Tenant: "t", Alignment: align, Options: JobOptions{Seed: int64(2*i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	close(queued)
	var starts []time.Time
	for _, id := range ids {
		starts = append(starts, waitJob(t, s, id, StateDone).Started)
	}
	if !starts[0].Before(starts[1]) || !starts[1].Before(starts[2]) {
		t.Errorf("jobs started at %v, want submission order", starts)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) > 0 {
		t.Errorf("jobs waited for a pod: %q", waits)
	}
}

// TestSaturatedFleetRunsInPopOrder: with more job slots than pod slots,
// the dispatcher acquires pods in pop order. Three job slots, one pod
// slot; x1 holds the pod while w (another dataset) waits for it, and w
// is canceled there; then y and x2, queued behind w, must start in
// submission order — x2 does not jump ahead onto x1's pod — and every
// tree must equal a serial run's. A job that waits logs its wait once,
// however often the dispatcher is kicked meanwhile.
func TestSaturatedFleetRunsInPopOrder(t *testing.T) {
	var (
		mu    sync.Mutex
		waits []string
		held  sync.Once
	)
	hold := make(chan struct{})
	waited := make(chan struct{}, 1)
	reg := obs.NewRegistry()
	s, err := NewServer(Options{
		DataDir:   t.TempDir(),
		MaxActive: 3,
		Fleet:     FleetOptions{Workers: 1, MaxPods: 1},
		Registry:  reg,
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			t.Log(line)
			switch {
			case strings.Contains(line, ": running on pod"):
				held.Do(func() { <-hold })
			case strings.Contains(line, "waiting for a pod"):
				mu.Lock()
				waits = append(waits, line)
				mu.Unlock()
				select {
				case waited <- struct{}{}:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x, y, z := testPhylipText(t, 6, 80, 1), testPhylipText(t, 6, 80, 2), testPhylipText(t, 6, 80, 3)
	specs := map[string]JobSpec{}
	var order []string
	for i, align := range []string{x, z, y, x} {
		spec := JobSpec{Tenant: "t", Alignment: align, Options: JobOptions{Seed: int64(2*i + 1)}}
		rec, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		specs[rec.ID] = spec
		order = append(order, rec.ID)
	}
	// While x1 holds the pod, w heads the queue: every wait is w's.
	<-waited
	w := order[1]
	mu.Lock()
	first := waits[0]
	mu.Unlock()
	if !strings.Contains(first, w) {
		t.Errorf("first wait %q, want w (%s)", first, w)
	}
	if _, err := s.Cancel(w); err != nil {
		t.Fatal(err)
	}
	close(hold)

	var starts []time.Time
	for _, id := range []string{order[0], order[2], order[3]} {
		starts = append(starts, waitJob(t, s, id, StateDone).Started)
		res, _, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		want := serialReference(t, specs[id])[0]
		if got := res.Jumbles[0]; got.Newick != want.BestNewick || got.LnL != want.LnL {
			t.Errorf("job %s: %q lnL %v, serial %q lnL %v", id, got.Newick, got.LnL, want.BestNewick, want.LnL)
		}
	}
	if !starts[0].Before(starts[1]) || !starts[1].Before(starts[2]) {
		t.Errorf("x1, y, x2 started at %v, want submission order", starts)
	}
	if rec := waitJob(t, s, w, StateCanceled); !rec.Started.IsZero() {
		t.Errorf("canceled job %s started at %v while it waited for a pod", w, rec.Started)
	}
	if got := scrape(t, reg)[`fdml_serve_jobs_total{tenant="t",outcome="canceled"}`]; got != 1 {
		t.Errorf("%v canceled outcomes, want exactly 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range order {
		n := 0
		for _, line := range waits {
			if strings.HasPrefix(line, "job "+id+":") {
				n++
			}
		}
		if n > 1 {
			t.Errorf("job %s logged %d waits for a pod, want one per wait", id, n)
		}
	}
}
