package serve

import "repro/internal/obs"

// Service-level metric families, all tenant-labeled so one /metrics
// scrape answers "who is using the fleet and how is it treating them".
// They live in the same registry as the fleet's RunObserver families
// (fdml_dispatch_total and friends), so the smoke test's zero-dispatch
// assertion and these SLO views come from a single endpoint. The
// tenant depth gauges are reads of the scheduler (Server.tenantGauges).
type serveMetrics struct {
	// fdml_serve_submissions_total{tenant}
	submissions *obs.CounterVec
	// fdml_serve_cache_hits_total{tenant} — submissions answered from
	// the content-addressed store without touching the fleet.
	cacheHits *obs.CounterVec
	// fdml_serve_rejections_total{tenant,reason} — admission control.
	rejections *obs.CounterVec
	// fdml_serve_jobs_total{tenant,outcome} — terminal transitions.
	outcomes *obs.CounterVec
	// fdml_serve_queue_wait_seconds{tenant} — admission to first
	// dispatch (the fairness SLO).
	queueWait *obs.HistogramVec
	// fdml_serve_job_seconds{tenant} — run time of completed jobs (the
	// latency SLO).
	jobSeconds *obs.HistogramVec
	// fdml_serve_resumed_total — jobs re-queued from manifests at boot.
	resumed *obs.Counter
	// fdml_serve_quarantined_total — jobs with corrupt state at boot.
	quarantined *obs.Counter
	// fdml_serve_auth_failures_total{reason} — 401s, by cause.
	authFailures *obs.CounterVec
	// fdml_gc_runs_total — retention GC sweeps.
	gcRuns *obs.Counter
	// fdml_gc_jobs_evicted_total — terminal jobs evicted past JobTTL.
	gcJobs *obs.Counter
	// fdml_gc_results_evicted_total{reason} — CAS entries deleted, by
	// "ttl" or "bytes" (LRU budget trim).
	gcResults *obs.CounterVec
	// fdml_gc_result_store_bytes — CAS size after the last sweep.
	gcResultBytes *obs.Gauge
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	waitBuckets := []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30, 120, 600}
	runBuckets := []float64{0.01, 0.1, 0.5, 1, 5, 30, 120, 600, 3600}
	return &serveMetrics{
		submissions:   reg.CounterVec("fdml_serve_submissions_total", "Jobs submitted, by tenant.", "tenant"),
		cacheHits:     reg.CounterVec("fdml_serve_cache_hits_total", "Submissions served from the result store, by tenant.", "tenant"),
		rejections:    reg.CounterVec("fdml_serve_rejections_total", "Submissions rejected by admission control.", "tenant", "reason"),
		outcomes:      reg.CounterVec("fdml_serve_jobs_total", "Jobs reaching a terminal state.", "tenant", "outcome"),
		queueWait:     reg.HistogramVec("fdml_serve_queue_wait_seconds", "Seconds from admission to first dispatch.", waitBuckets, "tenant"),
		jobSeconds:    reg.HistogramVec("fdml_serve_job_seconds", "Run seconds of completed jobs.", runBuckets, "tenant"),
		resumed:       reg.Counter("fdml_serve_resumed_total", "Incomplete jobs re-queued at daemon start."),
		quarantined:   reg.Counter("fdml_serve_quarantined_total", "Jobs quarantined for corrupt on-disk state."),
		authFailures:  reg.CounterVec("fdml_serve_auth_failures_total", "Requests rejected with 401.", "reason"),
		gcRuns:        reg.Counter("fdml_gc_runs_total", "Retention GC sweeps."),
		gcJobs:        reg.Counter("fdml_gc_jobs_evicted_total", "Terminal jobs evicted past the job TTL."),
		gcResults:     reg.CounterVec("fdml_gc_results_evicted_total", "Stored results deleted by the GC.", "reason"),
		gcResultBytes: reg.Gauge("fdml_gc_result_store_bytes", "Result store size after the last GC sweep."),
	}
}
