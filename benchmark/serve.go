package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/mlsearch"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The serve_mix workload: a real serve.Server behind net/http on
// loopback, auth on, driven by clients in this process.
const (
	serveDatasets = 3
	// openRate is the open-loop arrival rate, about 40 % of what the
	// two pod slots sustain on the reference host.
	openRate = 10.0
	// openShare of the measuring time goes to the open loop, the rest to
	// the closed loop.
	openShare = 0.6
	// dupMinAge is how long before a duplicate its original was due, so
	// that the original has long finished and the duplicate is answered
	// from the result store.
	dupMinAge = 1500 * time.Millisecond
	// closedClients is the closed loop's client count.
	closedClients = 2
	jobTimeout    = 60 * time.Second
)

var serveTenants = []struct{ key, tenant string }{
	{"bench-key-alpha-0123456789", "alpha"},
	{"bench-key-beta-0123456789", "beta"},
}

// daemon is one running fastdnamld: server, HTTP listener, key file.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	reg  *obs.Registry
	url  string
	done chan struct{}
}

// startDaemon does what fastdnamld does between reading its flags and
// accepting its first request: key file, NewServer over a data
// directory, listener.
func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var keys bytes.Buffer
	for _, t := range serveTenants {
		fmt.Fprintf(&keys, "%s %s\n", t.key, t.tenant)
	}
	keyPath := filepath.Join(dir, "keys")
	if err := os.WriteFile(keyPath, keys.Bytes(), 0o600); err != nil {
		return nil, err
	}
	auth, err := serve.NewKeyAuth(keyPath)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv, err := serve.NewServer(serve.Options{
		DataDir:   filepath.Join(dir, "data"),
		Fleet:     serve.FleetOptions{Workers: 1, MaxPods: 2},
		MaxActive: 2,
		// Roomy queues: the open loop must never be refused, only delayed.
		MaxQueued: 1024, MaxQueuedPerTenant: 512,
		Auth: auth, Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	d := &daemon{
		srv: srv, reg: reg, url: "http://" + ln.Addr().String(),
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln)
	}()
	return d, nil
}

func (d *daemon) close() {
	_ = d.http.Close()
	<-d.done
	_ = d.srv.Close()
}

// jobPlan is one scheduled submission.
type jobPlan struct {
	dataset int
	seed    int64
	tenant  int
	// dupOf indexes the plan this one repeats exactly (-1 = original).
	dupOf int
	// cold marks a job whose dataset is not among the two most recently
	// used: its pod has been evicted and must be built again.
	cold bool
	due  time.Duration
}

// jobRun is what the client saw for one job.
type jobRun struct {
	plan jobPlan
	err  error
	rec  serve.JobRecord
	// result is the "result" document of GET .../result, byte for byte.
	result json.RawMessage

	due, sent, accepted, terminal, fetched time.Time
}

func (j *jobRun) latency() time.Duration { return j.terminal.Sub(j.due) }

type client struct {
	http *http.Client
	url  string
	data []string
}

func (c *client) do(method, path, key string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

// run takes one job from submit to fetched result. due is when the
// schedule wanted it sent (now, for closed-loop clients).
func (c *client) run(p jobPlan, due time.Time) *jobRun {
	j := &jobRun{plan: p, due: due}
	j.err = c.drive(j)
	return j
}

func (c *client) drive(j *jobRun) error {
	key := serveTenants[j.plan.tenant].key
	body, err := json.Marshal(serve.JobSpec{
		Alignment: c.data[j.plan.dataset],
		Options:   serve.JobOptions{Seed: j.plan.seed},
	})
	if err != nil {
		return err
	}
	j.sent = time.Now()
	resp, err := c.do("POST", "/v1/jobs", key, body)
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&j.rec)
	resp.Body.Close()
	j.accepted = time.Now()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}

	resp, err = c.do("GET", "/v1/jobs/"+j.rec.ID+"/events", key, nil)
	if err != nil {
		return err
	}
	state, err := lastState(resp.Body)
	resp.Body.Close()
	j.terminal = time.Now()
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if state != serve.StateDone {
		return fmt.Errorf("job %s ended %q", j.rec.ID, state)
	}

	resp, err = c.do("GET", "/v1/jobs/"+j.rec.ID+"/result", key, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	var doc struct {
		Job    serve.JobRecord `json:"job"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	j.fetched = time.Now()
	j.rec, j.result = doc.Job, doc.Result
	return nil
}

// lastState reads an NDJSON event stream to its end and returns the
// terminal state line it must finish with.
func lastState(r io.Reader) (serve.JobState, error) {
	var last serve.JobState
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return "", err
		}
		if e.Type == "state" {
			last = e.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if !last.Terminal() {
		return "", fmt.Errorf("stream ended in state %q", last)
	}
	return last, nil
}

// planner builds the seeded schedule. It tracks which two datasets the
// fleet's LRU keeps resident, assuming jobs are served in order.
type planner struct {
	rng      *rand.Rand
	nextSeed int64
	resident [2]int // most recent first
	n        int
}

func (p *planner) touch(d int) (cold bool) {
	switch d {
	case p.resident[0]:
	case p.resident[1]:
		p.resident[0], p.resident[1] = p.resident[1], p.resident[0]
	default:
		cold = true
		p.resident[1], p.resident[0] = p.resident[0], d
	}
	return cold
}

// fresh plans a job with a seed never used before on the dataset.
func (p *planner) fresh(dataset int, due time.Duration) jobPlan {
	p.nextSeed += 2 // odd seeds only: the service normalises even ones up
	p.n++
	return jobPlan{dataset: dataset, seed: p.nextSeed, tenant: p.n % len(serveTenants), dupOf: -1, cold: p.touch(dataset), due: due}
}

func (p *planner) third() int {
	for d := 0; d < serveDatasets; d++ {
		if d != p.resident[0] && d != p.resident[1] {
			return d
		}
	}
	return 0
}

// openLoop plans n arrivals at openRate: 60 % a new seed on a resident
// dataset, 15 % the third dataset, 25 % an exact duplicate of a job due
// at least dupMinAge earlier (originals holds warm-up jobs, due long ago).
func (p *planner) openLoop(n int, plans []jobPlan) []jobPlan {
	first := len(plans)
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / openRate * float64(time.Second))
		u := p.rng.Float64()
		var eligible []int
		if u >= 0.75 {
			for k, o := range plans {
				if o.dupOf < 0 && (k < first || o.due+dupMinAge <= due) {
					eligible = append(eligible, k)
				}
			}
		}
		switch {
		case len(eligible) > 0:
			k := eligible[p.rng.Intn(len(eligible))]
			p.n++
			dup := plans[k]
			dup.dupOf, dup.cold, dup.due, dup.tenant = k, false, due, p.n%len(serveTenants)
			plans = append(plans, dup)
		case u >= 0.60 && u < 0.75:
			plans = append(plans, p.fresh(p.third(), due))
		default:
			plans = append(plans, p.fresh(p.resident[p.rng.Intn(2)], due))
		}
	}
	return plans
}

// serveChild measures the serve_mix workload in this process.
func serveChild(w workload, seed int64, index int, seconds float64, trace bool, outDir string) (*childReport, error) {
	rep := newChildReport()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	inputs := make([]*input, serveDatasets)
	data := make([]string, serveDatasets)
	for d := range inputs {
		if inputs[d], err = newInput(w, instanceSeed(seed, index, d)); err != nil {
			return nil, err
		}
		data[d] = string(inputs[d].phylip)
	}

	// Flush what earlier runs left dirty, so this one does not pay for it.
	syscall.Sync()

	cl := &client{
		data: data,
		http: &http.Client{Timeout: jobTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	defer cl.http.CloseIdleConnections()

	// Set-up, several times over: a fresh data directory → the daemon has
	// answered its first job (cold pod and all). Starting the daemon alone
	// takes 0.2 ms of file-system calls here, too little to repeat.
	for i := 0; i < w.setupReps(); i++ {
		start := time.Now()
		dm, err := startDaemon(filepath.Join(scratch, fmt.Sprint("setup", i)))
		if err != nil {
			return nil, err
		}
		cl.url = dm.url
		j := cl.run(jobPlan{dataset: i % serveDatasets, seed: 1, dupOf: -1}, start)
		dm.close()
		rep.Attempted++
		if j.err != nil {
			rep.fail("set-up job: %v", j.err)
			continue
		}
		rep.sample("setup_s", j.latency().Seconds())
	}

	dm, err := startDaemon(filepath.Join(scratch, "measured"))
	if err != nil {
		return nil, err
	}
	defer dm.close()
	cl.url = dm.url

	// Warm-up: the first job on every dataset (checked against a serial
	// run below), then one more on each of the two that stay resident.
	// These are the originals early duplicates repeat.
	pl := &planner{rng: rand.New(rand.NewSource(instanceSeed(seed, index, 0))), nextSeed: -1, resident: [2]int{-1, -1}}
	var plans []jobPlan
	for _, d := range []int{2, 0, 1, 0, 1} {
		plans = append(plans, pl.fresh(d, 0))
	}
	warm := len(plans)
	var runs []*jobRun
	for _, p := range plans {
		runs = append(runs, cl.run(p, time.Now()))
	}

	// Open loop: arrivals on a fixed schedule, each on its own goroutine,
	// latency counted from when the arrival was due.
	openSeconds := seconds * openShare
	plans = pl.openLoop(int(math.Max(4, math.Round(openSeconds*openRate))), plans)
	open := make([]*jobRun, len(plans)-warm)
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plans[warm:] {
		due := start.Add(p.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, p jobPlan) {
			defer wg.Done()
			open[i] = cl.run(p, due)
		}(i, p)
	}
	wg.Wait()
	runs = append(runs, open...)

	// Closed loop: each client submits its next job when the previous one
	// is done, each on one of the two resident datasets.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	closedStart := time.Now()
	deadline := closedStart.Add(time.Duration((seconds - openSeconds) * float64(time.Second)))
	closed := make([][]*jobRun, closedClients)
	resident := pl.resident
	var planMu sync.Mutex
	for c := range closed {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < 2 || time.Now().Before(deadline); n++ {
				planMu.Lock()
				p := pl.fresh(resident[c%2], 0)
				planMu.Unlock()
				closed[c] = append(closed[c], cl.run(p, time.Now()))
			}
		}(c)
	}
	wg.Wait()
	rep.Seconds = time.Since(closedStart).Seconds()
	runtime.ReadMemStats(&ms1)
	for _, c := range closed {
		rep.Ops += len(c)
		runs = append(runs, c...)
	}
	rep.sample("alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(rep.Ops))

	for _, j := range open {
		if j.err == nil {
			rep.sample("time_to_result_s", j.latency().Seconds())
		}
	}
	serial := checkServe(rep, inputs, runs, dm.reg)

	if trace {
		rep.Layers = serveLayers(open, runs, serial, dm.reg)
		if err := probeServeStores(rep.Layers, scratch, runs); err != nil {
			rep.fail("probes: %v", err)
		}
		if err := writeTrace(outDir, w.Name, traceIDs.Add(1), serveSpanLayers, serveSpans(start, runs)); err != nil {
			rep.fail("writing trace: %v", err)
		}
	}
	return rep, nil
}

// jobResult is the part of the stored result the checks read.
type jobResult struct {
	BestLnL    float64 `json:"best_lnl"`
	BestNewick string  `json:"best_newick"`
	TotalTasks int     `json:"total_tasks"`
}

// checkServe verifies every job's output and returns the median wall
// time of the in-process serial searches it compared against.
//
//   - every job ended done, and its tree re-scores to the reported lnL on
//     the reference engine;
//   - the first job on each dataset equals a serial mlsearch.Run of the
//     same spec, bit for bit;
//   - every duplicate was a cache hit returning its original's result
//     bytes, and the fleet dispatched exactly the tasks of the
//     non-duplicate jobs and none for the duplicates.
func checkServe(rep *childReport, inputs []*input, runs []*jobRun, reg *obs.Registry) time.Duration {
	sets := make([]*dataset, len(inputs))
	for d, in := range inputs {
		ds, err := in.load()
		if err != nil {
			rep.fail("dataset %d: %v", d, err)
			return 0
		}
		sets[d] = ds
	}
	var serialWalls []float64
	firstSeen := map[int]bool{}
	wantTasks := 0
	for i, j := range runs {
		rep.Attempted++
		if j.err != nil {
			rep.fail("job %d: %v", i, j.err)
			continue
		}
		var res jobResult
		if err := json.Unmarshal(j.result, &res); err != nil {
			rep.fail("job %d: result: %v", i, err)
			continue
		}
		ds := sets[j.plan.dataset]
		if err := rescore(ds, res.BestNewick, res.BestLnL); err != nil {
			rep.fail("job %d: %v", i, err)
			continue
		}
		if j.plan.dupOf >= 0 {
			orig := runs[j.plan.dupOf]
			switch {
			case !j.rec.CacheHit:
				rep.fail("job %d: duplicate of job %d was not answered from the result store", i, j.plan.dupOf)
			case !bytes.Equal(j.result, orig.result):
				rep.fail("job %d: duplicate returned different result bytes from job %d", i, j.plan.dupOf)
			}
			continue
		}
		wantTasks += res.TotalTasks
		if firstSeen[j.plan.dataset] {
			continue
		}
		firstSeen[j.plan.dataset] = true
		w := workload{Transport: mlsearch.Serial, Threads: 1}
		out, err := runSearch(w, &instance{in: inputs[j.plan.dataset], ds: ds, seed: j.plan.seed}, nil, false)
		if err != nil {
			rep.fail("job %d: serial run of the same spec: %v", i, err)
			continue
		}
		serialWalls = append(serialWalls, out.wall.Seconds())
		if math.Float64bits(out.res.LnL) != math.Float64bits(res.BestLnL) || out.res.BestNewick != res.BestNewick {
			rep.fail("job %d: result differs from a serial run of the same spec", i)
		}
	}
	if got := int(sumMetric(reg, "fdml_dispatch_total")); rep.Failed == 0 && got != wantTasks {
		rep.fail("fleet dispatched %d tasks, the non-duplicate jobs account for %d", got, wantTasks)
	}
	return time.Duration(median(serialWalls) * float64(time.Second))
}

// serveLayers is the service-side budget of one run: client-side request
// times, the record's own timestamps, and the registry's counters.
func serveLayers(open, all []*jobRun, serial time.Duration, reg *obs.Registry) map[string]float64 {
	var lat, hit, cold, warmLat, submit, queue, run, notify, fetch, lag []float64
	for _, j := range open {
		if j.err != nil {
			continue
		}
		l := ms(j.latency())
		lat = append(lat, l)
		lag = append(lag, ms(j.sent.Sub(j.due)))
		switch {
		case j.rec.CacheHit:
			hit = append(hit, l)
		case j.plan.cold:
			cold = append(cold, l)
		default:
			warmLat = append(warmLat, l)
		}
	}
	for _, j := range all {
		if j.err != nil {
			continue
		}
		fetch = append(fetch, ms(j.fetched.Sub(j.terminal)))
		if j.rec.CacheHit {
			continue
		}
		submit = append(submit, ms(j.accepted.Sub(j.sent)))
		queue = append(queue, ms(j.rec.Started.Sub(j.rec.Submitted)))
		run = append(run, ms(j.rec.Finished.Sub(j.rec.Started)))
		notify = append(notify, ms(j.terminal.Sub(j.rec.Finished)))
	}
	return map[string]float64{
		"serve.job_latency_p90_ms": quantile(lat, 0.9),
		"serve.submit_rtt_ms":      median(submit),
		"serve.queue_wait_ms":      median(queue),
		"serve.run_ms":             median(run),
		"serve.notify_ms":          median(notify),
		"serve.result_fetch_ms":    median(fetch),
		"serve.overhead_ms":        median(warmLat) - ms(serial),
		"serve.cache_hit_ms":       median(hit),
		"serve.cold_job_ms":        median(cold),
		"serve.pod_cold_starts":    sumMetric(reg, "fdml_serve_pods_created_total"),
		"serve.cache_hits":         sumMetric(reg, "fdml_serve_cache_hits_total"),
		"serve.rejected":           sumMetric(reg, "fdml_serve_rejections_total"),
		"serve.send_lag_ms":        median(lag),
	}
}

// probeServeStores times the durable stores and the key lookup directly,
// on a directory of their own, with a real result document.
func probeServeStores(m map[string]float64, scratch string, runs []*jobRun) error {
	const iters = 200
	var res serve.JobResult
	for _, j := range runs {
		if j.err == nil {
			if err := json.Unmarshal(j.result, &res); err != nil {
				return err
			}
			break
		}
	}
	dir := filepath.Join(scratch, "probe")
	jobs, err := serve.NewJobStore(dir)
	if err != nil {
		return err
	}
	cas, err := serve.NewResultStore(filepath.Join(dir, "results"))
	if err != nil {
		return err
	}
	spec := &serve.JobSpec{Alignment: " 3 4\na ACGT\nb ACGT\nc ACGT\n"}
	i := 0
	d, err := timePer(iters, func() error {
		i++
		rec := &serve.JobRecord{ID: fmt.Sprintf("j-%012x", i), State: serve.StateQueued, Submitted: time.Now()}
		return jobs.Create(rec, spec)
	})
	if err != nil {
		return err
	}
	m["serve.store_create_ms"] = ms(d)
	i = 0
	d, err = timePer(iters, func() error {
		i++
		r := res
		r.Key = fmt.Sprintf("%064x", i)
		return cas.Put(&r)
	})
	if err != nil {
		return err
	}
	m["serve.castore_put_ms"] = ms(d)
	i = 0
	d, err = timePer(iters, func() error {
		i++
		_, ok, err := cas.Get(fmt.Sprintf("%064x", i))
		if err == nil && !ok {
			err = fmt.Errorf("stored result %d not found", i)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["serve.castore_get_ms"] = ms(d)

	keyPath := filepath.Join(dir, "keys")
	if err := os.WriteFile(keyPath, []byte(serveTenants[0].key+" "+serveTenants[0].tenant+"\n"), 0o600); err != nil {
		return err
	}
	auth, err := serve.NewKeyAuth(keyPath)
	if err != nil {
		return err
	}
	d, err = timePer(probeIters, func() error {
		if _, ok := auth.Lookup(serveTenants[0].key); !ok {
			return fmt.Errorf("key lookup failed")
		}
		return nil
	})
	m["serve.auth_lookup_us"] = us(d)
	return err
}

// The serve trace: one span per job, and under it the client's three
// requests.
var serveSpanLayers = []string{"job", "request"}

func serveSpans(epoch time.Time, runs []*jobRun) []span {
	var spans []span
	at := func(t time.Time) int64 { return int64(t.Sub(epoch)) }
	for _, j := range runs {
		if j.err != nil {
			continue
		}
		parent := len(spans)
		name := "job"
		if j.rec.CacheHit {
			name = "job.cache_hit"
		}
		spans = append(spans, span{Layer: 0, Name: name, Start: at(j.due), End: at(j.fetched), Parent: -1, Worker: j.plan.tenant})
		for _, r := range []struct {
			name     string
			from, to time.Time
		}{{"submit", j.sent, j.accepted}, {"events", j.accepted, j.terminal}, {"result", j.terminal, j.fetched}} {
			spans = append(spans, span{Layer: 1, Name: r.name, Start: at(r.from), End: at(r.to), Parent: parent, Worker: j.plan.tenant})
		}
	}
	return spans
}
