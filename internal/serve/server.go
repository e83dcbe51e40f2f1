package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mlsearch"
	"repro/internal/obs"
)

// ErrNotFound reports an unknown job id.
var ErrNotFound = errors.New("serve: no such job")

// errClosing reports a submission racing the daemon's shutdown; the
// HTTP layer maps it to 503.
var errClosing = errors.New("serve: server closing")

// internalError wraps a failure of the service itself (job store I/O,
// result store corruption) as distinct from a bad request: the HTTP
// layer maps it to 500 where validation failures stay 400.
type internalError struct{ err error }

func (e *internalError) Error() string { return e.err.Error() }
func (e *internalError) Unwrap() error { return e.err }

// Options configure a Server.
type Options struct {
	// DataDir roots the durable state: jobs/ and results/ live under
	// it. A daemon restarted over the same DataDir resumes every
	// incomplete job.
	DataDir string
	// Fleet sizes the worker pods.
	Fleet FleetOptions
	// MaxActive bounds concurrently running jobs (default 2).
	MaxActive int
	// MaxQueued bounds the global queue; submissions past it get 429
	// (default 64).
	MaxQueued int
	// MaxQueuedPerTenant bounds one tenant's backlog (default 16).
	MaxQueuedPerTenant int
	// TenantWeights sets stride-scheduling weights (unlisted tenants
	// weigh 1).
	TenantWeights map[string]float64
	// Auth enables API-key authentication: every /v1 request must carry
	// a Bearer key from the key file, and the key's tenant — not the
	// request body — is the job's identity. Nil runs open (dev mode):
	// tenants are self-declared as before.
	Auth *KeyAuth
	// Rate bounds each tenant's request rate in submissions/second; 0
	// disables rate limiting. Rejections are 429 with reason
	// "rate_limited" and a computed Retry-After.
	Rate float64
	// Burst is the token-bucket depth for Rate (default 1).
	Burst int
	// JobTTL evicts terminal jobs (memory + job directory) once they
	// have been terminal this long; 0 keeps them forever.
	JobTTL time.Duration
	// ResultTTL deletes stored results unused (no cache hit) for this
	// long; 0 keeps them forever.
	ResultTTL time.Duration
	// MaxResultsBytes LRU-trims the result store past this byte budget;
	// 0 is unbounded.
	MaxResultsBytes int64
	// GCInterval is the reaper/GC tick (default 30s).
	GCInterval time.Duration
	// Registry receives the service and fleet metric families (nil
	// creates a private one). Share it with an obs.StatusServer to
	// serve /metrics.
	Registry *obs.Registry
	// Logf logs operational lines (nil discards).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxActive < 1 {
		o.MaxActive = 2
	}
	if o.MaxQueued < 1 {
		o.MaxQueued = 64
	}
	if o.MaxQueuedPerTenant < 1 {
		o.MaxQueuedPerTenant = 16
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.GCInterval <= 0 {
		o.GCInterval = 30 * time.Second
	}
	return o
}

// job is a Server's in-memory view of one job: the durable record plus
// the prepared spec, resume state, stop channel, and event log.
type job struct {
	mu       sync.Mutex
	rec      JobRecord
	prep     *preparedSpec
	resume   *mlsearch.Manifest
	stop     chan struct{}
	stopOnce sync.Once
	canceled bool
	events   eventLog
	queuedAt time.Time
	waiting  bool // refused a pod at least once; guarded by Server.mu
}

// snapshot returns a copy of the record for handlers.
func (j *job) snapshot() JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := j.rec
	if j.rec.Progress != nil {
		p := *j.rec.Progress
		rec.Progress = &p
	}
	return rec
}

// halt closes the stop channel once; canceled distinguishes a client
// cancel from a daemon shutdown.
func (j *job) halt(canceled bool) {
	j.mu.Lock()
	if canceled {
		j.canceled = true
	}
	j.mu.Unlock()
	j.stopOnce.Do(func() { close(j.stop) })
}

// Server is the inference service: admission, scheduling, execution,
// durability, and the HTTP API over them.
type Server struct {
	opt     Options
	reg     *obs.Registry
	met     *serveMetrics
	fleet   *Fleet
	store   *JobStore
	results *ResultStore
	limiter *rateLimiter
	mux     *http.ServeMux

	mu      sync.Mutex
	sched   *scheduler
	jobs    map[string]*job
	active  map[string]*job
	closing bool

	kick    chan struct{}
	stopAll chan struct{}
	wg      sync.WaitGroup

	// popped, when non-nil, runs as runJob starts, its pod held; tests
	// swap it in to hold a popped job there.
	popped func(*job)
}

// NewServer opens the durable stores under opt.DataDir, recovers every
// job found there (resuming incomplete ones, quarantining corrupt
// ones), and starts the dispatch loop. Close shuts it down gracefully.
func NewServer(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	store, err := NewJobStore(opt.DataDir)
	if err != nil {
		return nil, err
	}
	results, err := NewResultStore(filepath.Join(opt.DataDir, "results"))
	if err != nil {
		return nil, err
	}
	results.logf = opt.Logf
	s := &Server{
		opt:     opt,
		reg:     opt.Registry,
		met:     newServeMetrics(opt.Registry),
		fleet:   newServerFleet(opt),
		store:   store,
		results: results,
		sched:   newScheduler(opt.MaxQueued, opt.MaxQueuedPerTenant, opt.TenantWeights),
		jobs:    map[string]*job{},
		active:  map[string]*job{},
		kick:    make(chan struct{}, 1),
		stopAll: make(chan struct{}),
	}
	if opt.Rate > 0 {
		s.limiter = newRateLimiter(opt.Rate, opt.Burst)
	}
	s.initMux()
	s.tenantGauges(opt.Registry)
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.wg.Add(2)
	go s.dispatchLoop()
	go s.reapLoop()
	s.wake()
	return s, nil
}

// newServerFleet builds the server's fleet with its logger attached.
func newServerFleet(opt Options) *Fleet {
	f := NewFleet(opt.Fleet, opt.Registry)
	f.logf = opt.Logf
	return f
}

// wake nudges the dispatch loop.
func (s *Server) wake() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// tenantGauges declares fdml_serve_queue_depth and
// fdml_serve_active_jobs: per tenant the scheduler has seen, its queued
// jobs and its jobs holding a job slot, read when /metrics renders.
func (s *Server) tenantGauges(reg *obs.Registry) {
	reg.GaugeFunc("fdml_serve_queue_depth", "Queued jobs, by tenant.", []string{"tenant"}, func(emit obs.Emit) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for name, tq := range s.sched.tenants {
			emit(float64(len(tq.jobs)), name)
		}
	})
	reg.GaugeFunc("fdml_serve_active_jobs", "Running jobs, by tenant.", []string{"tenant"}, func(emit obs.Emit) {
		s.mu.Lock()
		defer s.mu.Unlock()
		active := map[string]int{}
		for _, j := range s.active {
			active[j.rec.Tenant]++
		}
		for name := range s.sched.tenants {
			emit(float64(active[name]), name)
		}
	})
}

// Submit admits a job. Validation failures return plain errors (HTTP
// 400); admission failures return *AdmissionError (HTTP 429). A
// submission whose result is already in the content-addressed store
// completes instantly as a cache hit without touching the fleet.
func (s *Server) Submit(spec JobSpec) (JobRecord, error) {
	prep, err := prepareSpec(spec)
	if err != nil {
		return JobRecord{}, err
	}
	tenant := prep.Spec.Tenant
	s.met.submissions.With(tenant).Inc()

	_, hit, err := s.results.Get(prep.ResultKey)
	if err != nil {
		return JobRecord{}, &internalError{err}
	}
	rec := JobRecord{
		ID:        newJobID(),
		Tenant:    tenant,
		Priority:  prep.Spec.Priority,
		State:     StateQueued,
		Jumbles:   prep.Spec.Options.Jumbles,
		ResultKey: prep.ResultKey,
		PodKey:    prep.PodKey,
		Submitted: time.Now(),
	}
	if hit {
		// Deduplicated: the fleet never sees this job.
		rec.State = StateDone
		rec.CacheHit = true
		rec.Started = rec.Submitted
		rec.Finished = time.Now()
	}
	j := newJob(rec, prep, nil)

	// Closing is checked before anything is written, so a submission
	// answered 503 leaves no job directory for the next boot to adopt.
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return JobRecord{}, errClosing
	}
	if !hit {
		if err := s.sched.push(j, false); err != nil {
			s.mu.Unlock()
			var adm *AdmissionError
			if errors.As(err, &adm) {
				s.met.rejections.With(tenant, adm.Reason).Inc()
			}
			return JobRecord{}, err
		}
	}
	if err := s.store.Create(&j.rec, &prep.Spec); err != nil {
		s.sched.remove(j.rec.ID)
		s.mu.Unlock()
		return JobRecord{}, &internalError{err}
	}
	s.jobs[j.rec.ID] = j
	s.mu.Unlock()
	if hit {
		s.met.cacheHits.With(tenant).Inc()
		s.met.outcomes.With(tenant, string(StateDone)).Inc()
		s.opt.Logf("job %s: cache hit (%s)", j.rec.ID, prep.ResultKey[:12])
		return j.snapshot(), nil
	}
	s.opt.Logf("job %s: queued (tenant %s, %d jumbles)", j.rec.ID, tenant, j.rec.Jumbles)
	s.wake()
	return j.snapshot(), nil
}

// newJob builds the in-memory view of a job around its record and
// appends the record's state as the first event; a terminal job's log is
// closed at once.
func newJob(rec JobRecord, prep *preparedSpec, resume *mlsearch.Manifest) *job {
	j := &job{
		rec:      rec,
		prep:     prep,
		resume:   resume,
		stop:     make(chan struct{}),
		queuedAt: time.Now(),
	}
	j.events.append(Event{Type: "state", Time: time.Now(), State: rec.State, Error: rec.Error})
	if rec.State.Terminal() {
		j.events.close()
	}
	return j
}

// Get returns a job's current record.
func (s *Server) Get(id string) (JobRecord, error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobRecord{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// Cancel cancels a job: a job still in the queue transitions
// immediately; a running job, or one the dispatcher has popped but not
// yet started, stops at its next round boundary. Terminal jobs are
// unchanged.
func (s *Server) Cancel(id string) (JobRecord, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return JobRecord{}, ErrNotFound
	}
	j.mu.Lock()
	state := j.rec.State
	j.mu.Unlock()
	switch {
	case state == StateQueued && s.active[id] == nil:
		s.sched.remove(id)
		s.mu.Unlock()
		s.finalize(j, StateCanceled, "canceled while queued")
	case state == StateQueued || state == StateRunning:
		// Popped, its pod held: the search stops at its next round
		// boundary, and runJob finalizes it canceled.
		j.halt(true)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
	return j.snapshot(), nil
}

// Result returns a completed job's stored result.
func (s *Server) Result(id string) (*JobResult, JobRecord, error) {
	rec, err := s.Get(id)
	if err != nil {
		return nil, JobRecord{}, err
	}
	if rec.State != StateDone {
		return nil, rec, fmt.Errorf("serve: job %s is %s, not done", id, rec.State)
	}
	res, ok, err := s.results.Get(rec.ResultKey)
	if err != nil {
		return nil, rec, err
	}
	if !ok {
		return nil, rec, fmt.Errorf("serve: job %s done but result %s missing", id, rec.ResultKey)
	}
	return res, rec, nil
}

// dispatchLoop starts queued jobs whenever slots free up, acquiring each
// popped job's pod itself, in pop order. A job whose dataset finds every
// pod slot held by other datasets' jobs goes back to the head of its
// tenant's queue, and the loop pops nothing more until it is kicked
// again, by the Release that frees a pod slot at the latest.
func (s *Server) dispatchLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopAll:
			return
		case <-s.kick:
		}
		for {
			s.mu.Lock()
			if s.closing || len(s.active) >= s.opt.MaxActive {
				s.mu.Unlock()
				break
			}
			j := s.sched.next()
			if j == nil {
				s.mu.Unlock()
				break
			}
			pod, err := s.fleet.Acquire(j.rec.PodKey, j.prep.Cfg)
			if errors.Is(err, ErrFleetSaturated) {
				// Every kick retries the head of the queue (a Cancel may
				// have put another job there), but a wait is logged once.
				s.sched.giveBack(j)
				first := !j.waiting
				j.waiting = true
				s.mu.Unlock()
				if first {
					s.opt.Logf("job %s: waiting for a pod (tenant %s)", j.rec.ID, j.rec.Tenant)
				}
				break
			}
			s.active[j.rec.ID] = j
			if err != nil {
				// Active until finalized, so no Cancel finalizes it too.
				s.mu.Unlock()
				s.finalize(j, StateFailed, err.Error())
				s.detachActive(j)
				continue
			}
			s.wg.Add(1)
			s.mu.Unlock()
			go s.runJob(j, pod)
		}
	}
}

// reapLoop is the periodic maintenance tick: retire idle pods and run
// the retention GC (job TTL, result TTL, result byte budget).
func (s *Server) reapLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopAll:
			return
		case now := <-t.C:
			if n := s.fleet.Reap(now); n > 0 {
				s.opt.Logf("fleet: reaped %d idle pod(s)", n)
			}
			s.runGC(now)
		}
	}
}

// runJob executes one job on the pod the dispatcher acquired for it:
// run each jumble in its own dispatcher lane with checkpointing, then
// memoize the result. Held by s.wg for graceful shutdown.
func (s *Server) runJob(j *job, pod *pod) {
	defer s.wg.Done()
	if s.popped != nil {
		s.popped(j)
	}
	tenant := j.rec.Tenant
	s.met.queueWait.With(tenant).Observe(time.Since(j.queuedAt).Seconds())

	started := time.Now()
	j.mu.Lock()
	j.rec.State = StateRunning
	j.rec.Started = started
	j.mu.Unlock()
	// Not persisted: the janitor re-queues a running record exactly like
	// a queued one, so the on-disk state stays queued until the end.
	j.events.append(Event{Type: "state", Time: started, State: StateRunning})
	s.opt.Logf("job %s: running on pod %.8s", j.rec.ID, j.rec.PodKey)

	results, runErr := s.runJumbles(j, pod)
	// The pod before the job slot: the job the dispatcher pops into the
	// freed slot must find the pod slot free too.
	s.fleet.Release(pod)
	s.detachActive(j)

	switch {
	case runErr == nil:
		res, err := buildResult(j, results)
		if err == nil {
			err = s.results.Put(res)
		}
		if err != nil {
			s.finalize(j, StateFailed, err.Error())
			return
		}
		s.met.jobSeconds.With(tenant).Observe(time.Since(started).Seconds())
		s.finalize(j, StateDone, "")
	case errors.Is(runErr, mlsearch.ErrStopped):
		j.mu.Lock()
		canceled := j.canceled
		j.mu.Unlock()
		if canceled {
			s.finalize(j, StateCanceled, "canceled")
			return
		}
		// Daemon shutdown: back to queued with the manifest flushed;
		// the next boot's janitor resumes from it.
		j.mu.Lock()
		j.rec.State = StateQueued
		j.rec.Started = time.Time{}
		rec := j.rec
		j.mu.Unlock()
		s.saveRecord(&rec)
		j.events.append(Event{Type: "state", Time: time.Now(), State: StateQueued})
		s.opt.Logf("job %s: interrupted, re-queued for resume", j.rec.ID)
	default:
		s.finalize(j, StateFailed, runErr.Error())
	}
}

// runJumbles runs (or resumes) every jumble of j on pod, recording each
// checkpoint into the job's manifest. Jumbles run sequentially within a
// job — concurrency comes from MaxActive jobs sharing pods — and every
// search is bit-identical to a serial run of the same seed.
func (s *Server) runJumbles(j *job, pod *pod) ([]*mlsearch.SearchResult, error) {
	recorder := mlsearch.NewManifestRecorder(s.store.ManifestPath(j.rec.ID), j.rec.Jumbles, j.resume)
	numTaxa := len(j.prep.Cfg.Taxa)
	out, err := pod.world.Run(j.prep.Cfg, mlsearch.RunOptions{
		Jumbles:              j.rec.Jumbles,
		MaxConcurrentJumbles: 1,
		ResumeManifest:       j.resume,
		Stop:                 j.stop,
		Progress: func(idx int, e mlsearch.ProgressEvent) {
			now := time.Now()
			j.mu.Lock()
			j.rec.Progress = &Progress{
				Jumble:     idx,
				Kind:       e.Kind.String(),
				TaxaInTree: e.TaxaInTree,
				NumTaxa:    numTaxa,
				BestLnL:    e.BestLnL,
			}
			j.mu.Unlock()
			j.events.append(Event{
				Type: "progress", Time: now, Jumble: idx,
				Kind: e.Kind.String(), TaxaInTree: e.TaxaInTree, BestLnL: e.BestLnL,
			})
		},
		OnCheckpoint: func(idx int, c mlsearch.Checkpoint) {
			if err := recorder.Record(c); err != nil {
				s.opt.Logf("job %s: checkpoint: %v", j.rec.ID, err)
			}
			j.events.append(Event{
				Type: "checkpoint", Time: time.Now(), Jumble: idx,
				Kind: string(c.Phase), TaxaInTree: c.NextIndex, BestLnL: c.LnL,
			})
		},
	})
	// Before the result is stored or the job finalized, so no manifest
	// write outlives its job.
	if ferr := recorder.Flush(); ferr != nil {
		s.opt.Logf("job %s: checkpoint: %v", j.rec.ID, ferr)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: job %s: %w", j.rec.ID, err)
	}
	return out, nil
}

// buildResult folds per-jumble search results into the stored document:
// core.NewInference picks the best jumble and builds the majority rule
// consensus over multi-jumble runs, as it does for the CLI.
func buildResult(j *job, results []*mlsearch.SearchResult) (*JobResult, error) {
	inf, err := core.NewInference(j.prep.Cfg, &mlsearch.RunOutcome{Results: results})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	res := &JobResult{Key: j.rec.ResultKey, BestLnL: inf.Best.LnL, BestNewick: inf.Best.Newick}
	for jj := range inf.Jumbles {
		r := &inf.Jumbles[jj]
		if r == inf.Best {
			res.BestJumble = jj
		}
		res.Jumbles = append(res.Jumbles, JumbleOutcome{Jumble: jj, Seed: r.Seed, LnL: r.LnL, Newick: r.Newick})
		res.TotalTasks += r.Search.TotalTasks
		res.TotalOps += r.Search.TotalOps
	}
	if inf.Consensus != nil {
		res.Consensus = inf.Consensus.Tree.Newick()
	}
	return res, nil
}

// detachActive removes j from the active set and wakes the dispatcher.
func (s *Server) detachActive(j *job) {
	s.mu.Lock()
	delete(s.active, j.rec.ID)
	s.mu.Unlock()
	s.wake()
}

// finalize moves j to a terminal state, persists it, counts the outcome
// and appends that state as its log's last event — counted first, so a
// follower that has read the terminal event sees it in /metrics.
func (s *Server) finalize(j *job, state JobState, errMsg string) {
	j.mu.Lock()
	j.rec.State = state
	j.rec.Error = errMsg
	j.rec.Finished = time.Now()
	if state == StateDone {
		j.rec.Error = ""
	}
	rec := j.rec
	j.mu.Unlock()
	s.saveRecord(&rec)
	s.met.outcomes.With(rec.Tenant, string(state)).Inc()
	j.events.append(Event{Type: "state", Time: rec.Finished, State: state, Error: rec.Error})
	j.events.close()
	s.opt.Logf("job %s: %s%s", rec.ID, state, errSuffix(errMsg))
	s.wake()
}

// saveRecord persists rec, logging a failure. The job's state in memory
// stands either way; a record left behind on disk is settled by the next
// boot's janitor (a job whose result is stored is adopted done).
func (s *Server) saveRecord(rec *JobRecord) {
	if err := s.store.SaveRecord(rec); err != nil {
		s.opt.Logf("job %s: saving its %s record: %v", rec.ID, rec.State, err)
	}
}

func errSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// Snapshot is the /status document: queue and fleet shape plus every
// job's current state.
func (s *Server) Snapshot() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	depth, byTenant := s.sched.depths()
	states := map[string]int{}
	ids := make([]string, 0, len(s.jobs))
	for id, j := range s.jobs {
		states[string(j.snapshot().State)]++
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return map[string]any{
		"queued":           depth,
		"queued_by_tenant": byTenant,
		"active":           len(s.active),
		"pods":             s.fleet.Pods(),
		"jobs_by_state":    states,
		"jobs":             ids,
	}
}

// Close shuts the service down gracefully: stop admitting, halt every
// running job at its next round boundary (their manifests flush and
// they return to queued on disk), wait for the loops, and tear the
// fleet down. A server restarted over the same DataDir resumes where
// this one stopped.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	running := make([]*job, 0, len(s.active))
	for _, j := range s.active {
		running = append(running, j)
	}
	s.mu.Unlock()
	close(s.stopAll)
	for _, j := range running {
		j.halt(false)
	}
	s.wg.Wait()
	return s.fleet.Close()
}

// --- HTTP API ---

// Handler returns the /v1 API handler, ready to mount on any mux (the
// daemon mounts it next to /metrics, /status, and /healthz). With
// Options.Auth set, every request must authenticate and all job
// visibility is tenant-scoped.
func (s *Server) Handler() http.Handler {
	if s.opt.Auth != nil {
		return s.withAuth(s.mux)
	}
	return s.mux
}

// maxBodyBytes bounds POST /v1/jobs bodies (alignment + options).
const maxBodyBytes = 32 << 20

func (s *Server) initMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux = mux
}

func writeJSONResponse(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSONResponse(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: request body: %w", err))
		return
	}
	// With auth on, the tenant is the credential's — whatever the body
	// self-declares is overwritten, so no client can bill or read
	// another tenant.
	tenant, authed := authTenant(r.Context())
	if authed {
		spec.Tenant = tenant
	} else if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if s.limiter != nil {
		if ok, wait := s.limiter.allow(spec.Tenant, time.Now()); !ok {
			s.met.rejections.With(spec.Tenant, "rate_limited").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
			writeJSONResponse(w, http.StatusTooManyRequests, map[string]string{"error": "rate_limited"})
			return
		}
	}
	rec, err := s.Submit(spec)
	if err != nil {
		var adm *AdmissionError
		var internal *internalError
		switch {
		case errors.As(err, &adm):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(adm.RetryAfter)))
			writeJSONResponse(w, http.StatusTooManyRequests, map[string]string{"error": adm.Reason})
		case errors.Is(err, errClosing):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &internal):
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	code := http.StatusAccepted
	if rec.CacheHit {
		code = http.StatusOK
	}
	writeJSONResponse(w, code, rec)
}

// visible reports whether the request may see rec: with auth off,
// everything; with auth on, only the authenticated tenant's jobs.
// Invisible jobs read as 404, not 403 — job ids must not leak across
// tenants.
func visible(r *http.Request, rec JobRecord) bool {
	tenant, authed := authTenant(r.Context())
	return !authed || rec.Tenant == tenant
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recs := make([]JobRecord, 0, len(s.jobs))
	for _, j := range s.jobs {
		if rec := j.snapshot(); visible(r, rec) {
			recs = append(recs, rec)
		}
	}
	s.mu.Unlock()
	sort.Slice(recs, func(i, k int) bool { return recs[i].Submitted.Before(recs[k].Submitted) })
	writeJSONResponse(w, http.StatusOK, map[string]any{"jobs": recs})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Get(r.PathValue("id"))
	if err != nil || !visible(r, rec) {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSONResponse(w, http.StatusOK, rec)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rec, err := s.Get(id); err != nil || !visible(r, rec) {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	rec, err := s.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSONResponse(w, http.StatusAccepted, rec)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rec, err := s.Get(id); err != nil || !visible(r, rec) {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	res, rec, err := s.Result(id)
	if errors.Is(err, ErrNotFound) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	if r.URL.Query().Get("format") == "newick" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, res.BestNewick)
		return
	}
	writeJSONResponse(w, http.StatusOK, map[string]any{"job": rec, "result": res})
}

// handleEvents streams a job's events as NDJSON, from the start of its
// log's window until the job reaches a terminal state or the client goes
// away.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil || !visible(r, j.snapshot()) {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	s.streamEvents(w, r.Context().Done(), j)
}

// streamEvents writes j's NDJSON event stream to w until the log ends,
// the client goes away, or the daemon stops. It reads the log by
// position, so every event still in the window arrives in order, and a
// job's stream ends with its terminal state as finalize appended it.
func (s *Server) streamEvents(w http.ResponseWriter, clientGone <-chan struct{}, j *job) {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for next := 0; ; {
		evs, after, ended, wake := j.events.since(next)
		for _, e := range evs {
			if enc.Encode(e) != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if ended {
			return
		}
		next = after
		select {
		case <-wake:
		case <-clientGone:
			return
		case <-s.stopAll:
			return
		}
	}
}
