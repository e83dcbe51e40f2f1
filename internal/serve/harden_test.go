package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// writeKeyFile drops a key file mapping each key to its tenant.
func writeKeyFile(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// doJSON sends a request with an optional bearer key and decodes the
// response body into out (when non-nil).
func doJSON(t *testing.T, method, url, key string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp
}

func TestAuthRequiredAndTenantScoping(t *testing.T) {
	keyA, keyB := "alpha-key-123456", "bravo-key-123456"
	auth, err := NewKeyAuth(writeKeyFile(t, "# test keys", keyA+" tenant-a", keyB+" tenant-b"))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Auth: auth})
	aln := testPhylipText(t, 6, 100, 7)
	body, _ := json.Marshal(JobSpec{Alignment: aln, Options: JobOptions{Seed: 3}})

	// Missing and unknown keys are 401 with a challenge.
	for _, key := range []string{"", "no-such-key-1234"} {
		resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", key, nil, nil)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, resp.StatusCode)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("key %q: 401 without WWW-Authenticate", key)
		}
	}

	// A submission's tenant comes from the key, not the body: even a
	// body claiming tenant-b is billed to the key's tenant-a.
	spoof, _ := json.Marshal(JobSpec{Tenant: "tenant-b", Alignment: aln, Options: JobOptions{Seed: 3}})
	var rec JobRecord
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", keyA, spoof, &rec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if rec.Tenant != "tenant-a" {
		t.Fatalf("spoofed tenant %q accepted, want tenant-a", rec.Tenant)
	}
	waitJob(t, s, rec.ID, StateDone)

	// Cross-tenant access reads as 404 on every job endpoint, so ids do
	// not leak across tenants; the owner still sees the job.
	for _, ep := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + rec.ID},
		{http.MethodGet, "/v1/jobs/" + rec.ID + "/events"},
		{http.MethodGet, "/v1/jobs/" + rec.ID + "/result"},
		{http.MethodDelete, "/v1/jobs/" + rec.ID},
	} {
		resp := doJSON(t, ep.method, ts.URL+ep.path, keyB, nil, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s as tenant-b: status %d, want 404", ep.method, ep.path, resp.StatusCode)
		}
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+rec.ID, keyA, nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("owner get status %d, want 200", resp.StatusCode)
	}

	// Listing is tenant-scoped.
	var listA, listB struct{ Jobs []JobRecord }
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", keyA, nil, &listA)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", keyB, nil, &listB)
	if len(listA.Jobs) != 1 || listA.Jobs[0].ID != rec.ID {
		t.Errorf("tenant-a list: %+v", listA.Jobs)
	}
	if len(listB.Jobs) != 0 {
		t.Errorf("tenant-b sees %d foreign jobs", len(listB.Jobs))
	}

	// 401s are counted by reason.
	var prom bytes.Buffer
	_ = s.reg.WritePrometheus(&prom)
	for _, want := range []string{
		`fdml_serve_auth_failures_total{reason="missing"} 1`,
		`fdml_serve_auth_failures_total{reason="unknown_key"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	_ = body
}

func TestKeyAuthReload(t *testing.T) {
	path := writeKeyFile(t, "old-key-12345678 tenant-a")
	auth, err := NewKeyAuth(path)
	if err != nil {
		t.Fatal(err)
	}
	if tenant, ok := auth.Lookup("old-key-12345678"); !ok || tenant != "tenant-a" {
		t.Fatalf("initial lookup = %q, %v", tenant, ok)
	}

	// Rotation: the old key stops working, the new one starts.
	if err := os.WriteFile(path, []byte("new-key-12345678 tenant-a\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if n, err := auth.Reload(); err != nil || n != 1 {
		t.Fatalf("reload = %d, %v", n, err)
	}
	if _, ok := auth.Lookup("old-key-12345678"); ok {
		t.Error("rotated-out key still resolves")
	}
	if tenant, ok := auth.Lookup("new-key-12345678"); !ok || tenant != "tenant-a" {
		t.Errorf("new key lookup = %q, %v", tenant, ok)
	}

	// A broken file keeps the previous key set in effect.
	if err := os.WriteFile(path, []byte("only-one-field\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := auth.Reload(); err == nil {
		t.Fatal("reload of a malformed file did not error")
	}
	if _, ok := auth.Lookup("new-key-12345678"); !ok {
		t.Error("failed reload dropped the working keys")
	}

	// Parse rejects duplicates and short keys outright.
	for _, bad := range []string{
		"dup-key-12345678 a\ndup-key-12345678 b",
		"short a",
		"",
	} {
		if _, err := parseKeyFile(strings.NewReader(bad)); err == nil {
			t.Errorf("parseKeyFile(%q) accepted", bad)
		}
	}
}

func TestRateLimiterBucket(t *testing.T) {
	l := newRateLimiter(1, 2)
	t0 := time.Now()
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a", t0); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := l.allow("a", t0)
	if ok {
		t.Fatal("third immediate request allowed past burst 2")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after %v, want (0, 1s]", wait)
	}
	// Tenants have independent buckets.
	if ok, _ := l.allow("b", t0); !ok {
		t.Error("tenant b starved by tenant a's bucket")
	}
	// One second refills one token.
	if ok, _ := l.allow("a", t0.Add(time.Second)); !ok {
		t.Error("refilled token denied")
	}
	if ok, _ := l.allow("a", t0.Add(time.Second)); ok {
		t.Error("second token appeared after one refill interval")
	}
}

func TestRateLimit429OverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Options{Rate: 0.001, Burst: 2})
	aln := testPhylipText(t, 6, 100, 7)
	submit := func(seed int64) []byte {
		b, _ := json.Marshal(JobSpec{Alignment: aln, Options: JobOptions{Seed: seed, Jumbles: 4}})
		return b
	}
	for i := 0; i < 2; i++ {
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", submit(int64(3+2*i)), nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	var errBody map[string]string
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", submit(99), &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: status %d, want 429", resp.StatusCode)
	}
	if errBody["error"] != "rate_limited" {
		t.Errorf("429 body %v, want rate_limited", errBody)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive whole-second backoff", ra)
	}
	// GETs are not rate limited: polling a job must never 429.
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", "", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("list status %d after rate limit hit", resp.StatusCode)
	}
}

func TestSubmitOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	huge := append([]byte(`{"alignment":"`), bytes.Repeat([]byte("A"), maxBodyBytes+1024)...)
	huge = append(huge, []byte(`"}`)...)
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", huge, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

func TestSubmitInternalErrorIs500(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	spec := JobSpec{Alignment: testPhylipText(t, 6, 100, 7), Options: JobOptions{Seed: 3}}
	prep, err := prepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A result store that cannot be read (here a directory where the
	// result document belongs) is a service-side failure: the
	// submission is well-formed, so 400 would blame the wrong party.
	if err := os.Mkdir(filepath.Join(s.results.dir, prep.ResultKey+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(spec)
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", body, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt-store submit: status %d, want 500", resp.StatusCode)
	}
	// Malformed requests are still the client's fault.
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", []byte(`{"alignment":"not phylip"}`), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad alignment: status %d, want 400", resp.StatusCode)
	}
}

// TestTornResultIsAMiss: a stored result cut to zero bytes (a crash
// between a rename and the data reaching the disk) is a cache miss, not
// a 500. Resubmitting its spec runs the job again, and the new write
// replaces the torn document with the original bits. A document whose
// key is not its file's name is a miss too.
func TestTornResultIsAMiss(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	spec := JobSpec{Alignment: testPhylipText(t, 6, 100, 7), Options: JobOptions{Seed: 3}}
	code, rec := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	waitJob(t, s, rec.ID, StateDone)
	path := filepath.Join(s.results.dir, rec.ResultKey+".json")
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	code, again := postJob(t, ts, spec)
	if code != http.StatusAccepted || again.CacheHit {
		t.Fatalf("resubmit over a torn result: status %d, cache hit %v; want 202, a miss", code, again.CacheHit)
	}
	waitJob(t, s, again.ID, StateDone)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, original) {
		t.Fatalf("rewritten result (err %v):\n%s\nwant:\n%s", err, got, original)
	}

	var doc JobResult
	if err := json.Unmarshal(original, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Key = strings.Repeat("0", len(doc.Key))
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.results.Get(rec.ResultKey); hit || err != nil {
		t.Errorf("document under another key: hit %v, err %v; want a miss", hit, err)
	}
}

// diskFull is the error a full disk gives a write to path.
func diskFull(path string) error {
	return &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
}

// TestSubmitWhileClosingLeavesNoJob: a cache-hit submission that races
// the shutdown is answered errClosing (HTTP 503) and leaves no job
// directory behind for the next boot to adopt.
func TestSubmitWhileClosingLeavesNoJob(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	spec := JobSpec{Alignment: testPhylipText(t, 6, 100, 7), Options: JobOptions{Seed: 3}}
	prep, err := prepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.results.Put(&JobResult{Key: prep.ResultKey, BestNewick: "(a,b,(c,(d,(e,f))));"}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	_, err = s.Submit(spec)
	s.mu.Lock()
	s.closing = false // so the cleanup's Close shuts the server down
	s.mu.Unlock()
	if !errors.Is(err, errClosing) {
		t.Fatalf("submit while closing: %v, want %v", err, errClosing)
	}
	if ids, err := s.store.List(); err != nil || len(ids) != 0 {
		t.Errorf("a submission refused while closing left jobs %v (%v)", ids, err)
	}
}

// TestCreateFailureLeavesNoDirectory: a job whose spec or first record
// cannot be written leaves no directory, which the next boot would
// quarantine as a job the client was told failed.
func TestCreateFailureLeavesNoDirectory(t *testing.T) {
	store, err := NewJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spec.json", "job.json"} {
		store.write = func(path string, v any) error {
			if filepath.Base(path) == name {
				return diskFull(path)
			}
			return writeJSON(path, v)
		}
		rec := &JobRecord{ID: newJobID(), Tenant: "a", State: StateQueued}
		if err := store.Create(rec, &JobSpec{}); !errors.Is(err, syscall.ENOSPC) {
			t.Errorf("%s write failing: Create returned %v", name, err)
		}
		if _, err := os.Stat(store.Dir(rec.ID)); !os.IsNotExist(err) {
			t.Errorf("%s write failing: job directory left behind (%v)", name, err)
		}
	}
}

// TestDiskFaultStaysScopedToItsJob: a full disk under one job's result
// write fails that job, with the cause in its document. Another tenant's
// job running beside it finishes bit-identical to a serial run, and the
// daemon goes on admitting work.
func TestDiskFaultStaysScopedToItsJob(t *testing.T) {
	var (
		mu      sync.Mutex
		running int
	)
	both := make(chan struct{})
	s, err := NewServer(Options{
		DataDir: t.TempDir(),
		Fleet:   FleetOptions{Workers: 1},
		Logf: func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			t.Log(line)
			if !strings.Contains(line, ": running on pod") {
				return
			}
			// The first two jobs start only once both hold their pods.
			mu.Lock()
			running++
			n := running
			mu.Unlock()
			if n == 2 {
				close(both)
			}
			if n <= 2 {
				<-both
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	bad := JobSpec{Tenant: "a", Alignment: testPhylipText(t, 6, 100, 1), Options: JobOptions{Seed: 3}}
	good := JobSpec{Tenant: "b", Alignment: testPhylipText(t, 6, 100, 2), Options: JobOptions{Seed: 5}}
	prep, err := prepareSpec(bad)
	if err != nil {
		t.Fatal(err)
	}
	s.results.write = func(path string, v any) error {
		if r, ok := v.(*JobResult); ok && r.Key == prep.ResultKey {
			return diskFull(path)
		}
		return writeJSON(path, v)
	}
	var ids []string
	for _, spec := range []JobSpec{bad, good} {
		rec, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}

	if rec := waitJob(t, s, ids[0], StateFailed); !strings.Contains(rec.Error, syscall.ENOSPC.Error()) {
		t.Errorf("failed job's error %q does not name the full disk", rec.Error)
	}
	waitJob(t, s, ids[1], StateDone)
	res, _, err := s.Result(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, good)[0]
	if got := res.Jumbles[0]; got.Newick != want.BestNewick || got.LnL != want.LnL {
		t.Errorf("neighbor job: %q lnL %v, serial %q lnL %v", got.Newick, got.LnL, want.BestNewick, want.LnL)
	}

	next, err := s.Submit(JobSpec{Tenant: "a", Alignment: bad.Alignment, Options: JobOptions{Seed: 7}})
	if err != nil {
		t.Fatalf("submission after the disk fault: %v", err)
	}
	waitJob(t, s, next.ID, StateDone)
}

func TestGCEvictsTerminalJobsButKeepsResults(t *testing.T) {
	s, ts := newTestServer(t, Options{JobTTL: time.Minute, GCInterval: time.Hour})
	spec := JobSpec{Tenant: "a", Alignment: testPhylipText(t, 6, 100, 7), Options: JobOptions{Seed: 3}}
	body, _ := json.Marshal(spec)
	var rec JobRecord
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", body, &rec)
	waitJob(t, s, rec.ID, StateDone)

	// Within the TTL nothing is evicted.
	s.runGC(time.Now())
	if _, err := s.Get(rec.ID); err != nil {
		t.Fatalf("fresh terminal job evicted: %v", err)
	}

	// Past the TTL the job leaves memory and disk.
	s.runGC(time.Now().Add(2 * time.Minute))
	if _, err := s.Get(rec.ID); err == nil {
		t.Fatal("expired job still resolves in memory")
	}
	if _, statErr := os.Stat(s.store.Dir(rec.ID)); !os.IsNotExist(statErr) {
		t.Fatalf("expired job directory still on disk: %v", statErr)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+rec.ID, "", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job answers %d, want 404", resp.StatusCode)
	}
	if got := s.met.gcJobs.Value(); got != 1 {
		t.Errorf("fdml_gc_jobs_evicted_total = %v, want 1", got)
	}

	// The result outlives the job record (no ResultTTL set), so the
	// same spec resubmitted is still a zero-dispatch cache hit.
	before := scrape(t, s.reg)["fdml_dispatch_total"]
	var dup JobRecord
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", body, &dup)
	if resp.StatusCode != http.StatusOK || !dup.CacheHit {
		t.Fatalf("post-GC resubmit: status %d, record %+v", resp.StatusCode, dup)
	}
	if after := scrape(t, s.reg)["fdml_dispatch_total"]; after != before {
		t.Errorf("post-GC cache hit dispatched %v tasks", after-before)
	}

	// A result TTL eventually clears the CAS too, and then the same
	// spec is a fresh computation.
	s.opt.ResultTTL = time.Minute
	s.runGC(time.Now().Add(24 * time.Hour))
	if n := s.met.gcResults.With("ttl").Value(); n < 1 {
		t.Fatalf("fdml_gc_results_evicted_total{ttl} = %v, want >= 1", n)
	}
	var fresh JobRecord
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", body, &fresh)
	if resp.StatusCode != http.StatusAccepted || fresh.CacheHit {
		t.Fatalf("post-result-GC resubmit: status %d, record %+v", resp.StatusCode, fresh)
	}
	waitJob(t, s, fresh.ID, StateDone)
}

func TestGCResultByteBudgetLRU(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxResultsBytes: 1, GCInterval: time.Hour})
	pad := strings.Repeat("x", 4096)
	now := time.Now()
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = hashJSON(i)
		if err := s.results.Put(&JobResult{Key: keys[i], BestNewick: pad}); err != nil {
			t.Fatal(err)
		}
		// Oldest-used first: keys[0] is the coldest entry.
		p, _ := s.results.path(keys[i])
		mt := now.Add(time.Duration(i-10) * time.Minute)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s.runGC(now)
	// Budget 1 byte: everything must go, coldest first; the gauge lands
	// at the surviving size (0).
	for i, key := range keys {
		if _, ok, _ := s.results.Get(key); ok {
			t.Errorf("result %d survived a 1-byte budget", i)
		}
	}
	if n := s.met.gcResults.With("bytes").Value(); n != 3 {
		t.Errorf("fdml_gc_results_evicted_total{bytes} = %v, want 3", n)
	}
	if g := s.met.gcResultBytes.Value(); g != 0 {
		t.Errorf("fdml_gc_result_store_bytes = %v, want 0", g)
	}
}

// TestGCThenRestartDoesNotResurrect is the GC-vs-janitor interaction:
// an evicted job must not reappear (or quarantine) at the next boot,
// while an unexpired terminal job survives the restart with its
// finish time — and therefore its remaining TTL — intact.
func TestGCThenRestartDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	aln := testPhylipText(t, 6, 100, 7)
	s1, err := NewServer(Options{DataDir: dir, JobTTL: time.Minute, GCInterval: time.Hour, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	evicted, sErr := s1.Submit(JobSpec{Alignment: aln, Options: JobOptions{Seed: 3}})
	if sErr != nil {
		t.Fatal(sErr)
	}
	kept, sErr := s1.Submit(JobSpec{Alignment: aln, Options: JobOptions{Seed: 5}})
	if sErr != nil {
		t.Fatal(sErr)
	}
	waitJob(t, s1, evicted.ID, StateDone)
	keptDone := waitJob(t, s1, kept.ID, StateDone)

	// Age only the first job past the TTL, then GC and restart.
	doneRec, _ := s1.Get(evicted.ID)
	s1.mu.Lock()
	j := s1.jobs[evicted.ID]
	s1.mu.Unlock()
	j.mu.Lock()
	j.rec.Finished = doneRec.Finished.Add(-2 * time.Minute)
	j.mu.Unlock()
	s1.runGC(time.Now())
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Options{DataDir: dir, JobTTL: time.Minute, GCInterval: time.Hour, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	if _, err := s2.Get(evicted.ID); err == nil {
		t.Fatal("janitor resurrected a GC'd job")
	}
	if n := s2.met.quarantined.Value(); n != 0 {
		t.Fatalf("restart quarantined %v jobs after a clean GC", n)
	}
	if n := s2.met.resumed.Value(); n != 0 {
		t.Fatalf("restart resumed %v jobs; both were terminal", n)
	}
	rec, err := s2.Get(kept.ID)
	if err != nil {
		t.Fatal("unexpired terminal job lost across restart")
	}
	if !rec.Finished.Equal(keptDone.Finished) {
		t.Errorf("finish time drifted across restart: %v != %v", rec.Finished, keptDone.Finished)
	}
	// Its TTL clock kept running: the second life's GC evicts it.
	s2.runGC(time.Now().Add(2 * time.Minute))
	if _, err := s2.Get(kept.ID); err == nil {
		t.Error("second-life GC did not evict the expired job")
	}
}

func TestFleetDoubleReleaseGuard(t *testing.T) {
	prep, err := prepareSpec(JobSpec{Alignment: testPhylipText(t, 6, 100, 7), Options: JobOptions{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFleet(FleetOptions{Workers: 1, IdleTTL: time.Minute}, obs.NewRegistry())
	var logged bool
	f.logf = func(format string, args ...any) {
		logged = true
		t.Logf(format, args...)
	}
	p, err := f.Acquire(prep.PodKey, prep.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Release(p)
	f.Release(p) // the bug: this used to drive refs to -1
	if !logged {
		t.Error("double release not logged")
	}
	f.mu.Lock()
	refs := p.refs
	f.mu.Unlock()
	if refs != 0 {
		t.Fatalf("refs = %d after double release, want 0", refs)
	}

	// With the count clamped, a re-acquired pod is held (refs 1), so an
	// aggressive reap pass must not tear it down under the job.
	if p2, err := f.Acquire(prep.PodKey, prep.Cfg); err != nil {
		t.Fatal(err)
	} else if p2 != p {
		t.Fatal("re-acquire built a new pod; warm pod lost")
	}
	if n := f.Reap(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("reaper tore down %d held pod(s)", n)
	}
	f.Release(p)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// gatedWriter blocks its first Write until the gate opens, simulating a
// follower that cannot keep up with the event stream.
type gatedWriter struct {
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once

	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *gatedWriter) Header() http.Header { return http.Header{} }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *gatedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// followStalled streams a job's log to a follower whose first write
// stalls while n more progress events and then the terminal state are
// appended behind it. It returns the lines the follower received and the
// lines appended, in position order.
func followStalled(t *testing.T, n int) (got, appended []string) {
	t.Helper()
	s, _ := newTestServer(t, Options{})
	j := &job{
		rec:  JobRecord{ID: "j-abcdefabcdef", Tenant: "a", State: StateRunning},
		stop: make(chan struct{}),
	}
	w := &gatedWriter{gate: make(chan struct{}), entered: make(chan struct{})}
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		s.streamEvents(w, nil, j)
	}()
	add := func(e Event) {
		j.events.append(e)
		b, _ := json.Marshal(e)
		appended = append(appended, string(b))
	}

	// The first event reaches the follower, whose Write then stalls.
	add(Event{Type: "progress", Jumble: 0})
	<-w.entered
	for i := 1; i <= n; i++ {
		add(Event{Type: "progress", TaxaInTree: i})
	}
	// The record turns terminal first, as in finalize; the appended
	// event's time differs from the record's, so a line rebuilt from the
	// record would not match it.
	j.mu.Lock()
	j.rec.State, j.rec.Error, j.rec.Finished = StateFailed, "engine exploded", time.Now()
	j.mu.Unlock()
	add(Event{Type: "state", Time: time.Date(2001, 11, 10, 0, 0, 0, 0, time.UTC), State: StateFailed, Error: "engine exploded"})
	j.events.close()

	close(w.gate)
	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never ended after the log closed")
	}
	return strings.Split(strings.TrimSpace(w.String()), "\n"), appended
}

// sameLines fails the test at the first line where got and want differ.
func sameLines(t *testing.T, got, want []string) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("line %d of %d: got %s, want %s", i, len(got), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("follower received %d lines, want %d", len(got), len(want))
	}
}

// TestEventStreamSlowFollowerGetsEveryEvent pins the stream contract
// below the window: a follower that stalls while 200 events (more than
// a follower could once buffer, fewer than the window) and the terminal
// state are appended receives all 202 lines in order, the terminal state
// last as appended.
func TestEventStreamSlowFollowerGetsEveryEvent(t *testing.T) {
	got, appended := followStalled(t, 200)
	sameLines(t, got, appended)
}

// TestEventStreamSlowFollowerGetsTerminalState pins it past the window:
// after 302 events the stalled follower receives its first event, then
// the window's eventHistory events, contiguous, with the terminal state
// last as appended.
func TestEventStreamSlowFollowerGetsTerminalState(t *testing.T) {
	got, appended := followStalled(t, 300)
	sameLines(t, got, append(appended[:1:1], appended[len(appended)-eventHistory:]...))
}

// TestEventStreamEndsWithTerminalStateE2E asserts the contract over
// real HTTP for a normally-paced client.
func TestEventStreamEndsWithTerminalStateE2E(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body, _ := json.Marshal(JobSpec{Alignment: testPhylipText(t, 6, 100, 7), Options: JobOptions{Seed: 3}})
	var rec JobRecord
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", "", body, &rec)
	waitJob(t, s, rec.ID, StateDone)
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, rec.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stream bytes.Buffer
	if _, err := stream.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stream.String()), "\n")
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("stream ended with %+v, want done state", last)
	}
}
