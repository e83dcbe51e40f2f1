package main

import "repro/internal/mlsearch"

// workload is one named input set. Every field is a property of the
// input or of how the program is asked to run it; nothing here names an
// optimisation.
type workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records.
	Why string
	// Serve marks the HTTP service mix; the rest are complete searches.
	Serve bool
	// Taxa, Sites and Patterns size the simulated alignment (per dataset
	// for serve_mix): Sites columns, Patterns distinct ones among them.
	// BranchLen is the mean branch length of the tree it evolves down
	// (0 = simulate's default, 0.08).
	Taxa, Sites, Patterns int
	BranchLen             float64
	// Transport, Workers and Threads select the runtime exactly as the
	// fastdnaml flags would.
	Transport mlsearch.Transport
	Workers   int
	Threads   int
	// SearchSeconds is what one search took on the reference host when
	// the benchmark was defined. It only sizes the fixed list of problems
	// a run of a given length searches (problemCount).
	SearchSeconds float64
}

// measureProcs is how many child processes share one untraced run.
const measureProcs = 8

// setupReps is how many times each child process sets up from scratch
// (fewer for the service, whose set-up includes a whole cold job).
func (w workload) setupReps() int {
	if w.Serve {
		return 3
	}
	return 5
}

// parallelism is the number of processors the workload is allowed to
// keep busy (the denominator of mlsearch.scaling_efficiency).
func (w workload) parallelism() int {
	if w.Workers > 1 {
		return w.Workers
	}
	if w.Threads > 1 {
		return w.Threads
	}
	return 1
}

// workloads are sized so that one search takes 0.3–0.5 s on the 2-core
// reference host: a measuring process then searches five or more problems
// in its share of a run, which is what makes the medians steady. All are
// F84, extent 1, float64, sweep smoothing, default pipeline — what a user
// gets with no flags.
var workloads = []workload{
	{
		Name: "serial20", Taxa: 20, Sites: 600, Patterns: 300, Transport: mlsearch.Serial, Threads: 1, SearchSeconds: 0.46,
		Why: "plain single-threaded search: likelihood does nearly all the work, comm/codec/foreman/serve none, so kernel, Newton and smoothing changes show here and dispatch changes must not",
	},
	{
		Name: "local2w20", Taxa: 20, Sites: 600, Patterns: 300, Transport: mlsearch.Local, Workers: 2, Threads: 1, SearchSeconds: 0.30,
		Why: "the same problem and seed on 2 in-process workers (Fig 4 analogue): adds codec, local comm, foreman queueing and the round barrier; must equal serial20 bit for bit",
	},
	{
		Name: "tcp2w_wide32", Taxa: 32, Sites: 140, Patterns: 100, Transport: mlsearch.TCP, Workers: 2, Threads: 1, SearchSeconds: 0.50,
		Why: "many sub-millisecond tasks on big trees over TCP loopback with 2 elastic workers: codec, framing, foreman and tree parse/apply/undo dominate, kernels do little",
	},
	{
		Name: "long8_t2", Taxa: 8, Sites: 9000, Patterns: 3000, BranchLen: 0.2, Transport: mlsearch.Serial, Threads: 2, SearchSeconds: 0.46,
		Why: "few long CLVs (3000 patterns, 96 kB each) streamed through the 2-thread shard pool, under 100 tasks, almost no tree or search work: where thread-sharding shows and short-vector tuning must not cost",
	},
	{
		Name: "serve_mix", Serve: true, Taxa: 10, Sites: 300, Patterns: 100,
		Why: "fastdnamld over HTTP with auth: tiny jobs, 3 datasets on 2 pod slots; open loop at 10 jobs/s (60% new seed, 15% evicted dataset, 25% duplicates), then 2 closed-loop clients; service cost dominates",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef is one row of BENCHMARK.json. Bound is zero for per-layer
// metrics, which are never gated.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of fastdnaml / fastdnamld waits or pays for.
// Every metric is defined on every workload (the driver requires it):
// a "result" is one complete search, or one job through the service.
var endToEnd = []metricDef{
	{Name: "time_to_result_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "results_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.08},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced layer budget. A metric reads 0 on a workload
// whose path does not include that layer.
var perLayer = []metricDef{
	{Name: "seq.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "seq.compress_ms", Unit: "ms", Better: "lower"},
	{Name: "seq.patterns", Unit: "count", Better: "lower"},

	{Name: "search.self_s", Unit: "s", Better: "lower"},
	{Name: "search.rounds", Unit: "count", Better: "lower"},
	{Name: "search.tasks", Unit: "count", Better: "lower"},
	{Name: "search.gen_bytes", Unit: "bytes", Better: "lower"},

	{Name: "dispatch.self_s", Unit: "s", Better: "lower"},

	{Name: "evaluate.self_s", Unit: "s", Better: "lower"},
	{Name: "evaluate.add_s", Unit: "s", Better: "lower"},
	{Name: "evaluate.smooth_s", Unit: "s", Better: "lower"},
	{Name: "evaluate.rearrange_s", Unit: "s", Better: "lower"},
	{Name: "evaluate.final_s", Unit: "s", Better: "lower"},
	{Name: "evaluate.tasks", Unit: "count", Better: "lower"},

	{Name: "tree.parse_us", Unit: "us", Better: "lower"},
	{Name: "tree.format_us", Unit: "us", Better: "lower"},
	{Name: "tree.spr_apply_undo_us", Unit: "us", Better: "lower"},

	{Name: "likelihood.self_s", Unit: "s", Better: "lower"},
	{Name: "likelihood.optimize_branches_s", Unit: "s", Better: "lower"},
	{Name: "likelihood.optimize_edge_s", Unit: "s", Better: "lower"},
	{Name: "likelihood.insert_prepare_s", Unit: "s", Better: "lower"},
	{Name: "likelihood.insert_score_s", Unit: "s", Better: "lower"},
	{Name: "likelihood.loglik_s", Unit: "s", Better: "lower"},
	{Name: "likelihood.calls", Unit: "count", Better: "lower"},
	{Name: "likelihood.ops", Unit: "count", Better: "lower"},
	{Name: "likelihood.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "likelihood.newton_iters", Unit: "count", Better: "lower"},
	{Name: "likelihood.smooth_passes", Unit: "count", Better: "lower"},
	{Name: "likelihood.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "likelihood.clv_bytes", Unit: "bytes", Better: "lower"},

	{Name: "codec.task_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "codec.result_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "codec.task_bytes", Unit: "bytes", Better: "lower"},
	{Name: "codec.allocs_per_roundtrip", Unit: "count", Better: "lower"},

	{Name: "comm.tcp_rtt_us", Unit: "us", Better: "lower"},
	{Name: "comm.local_rtt_us", Unit: "us", Better: "lower"},
	{Name: "comm.bytes_per_task", Unit: "bytes", Better: "lower"},
	{Name: "comm.msgs_per_task", Unit: "count", Better: "lower"},

	{Name: "foreman.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "foreman.rtt_minus_eval_s", Unit: "s", Better: "lower"},
	{Name: "foreman.barrier_idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "foreman.dispatched", Unit: "count", Better: "lower"},
	{Name: "foreman.timeouts", Unit: "count", Better: "lower"},
	{Name: "foreman.inline", Unit: "count", Better: "lower"},
	{Name: "mlsearch.scaling_efficiency", Unit: "ratio", Better: "higher"},

	{Name: "serve.job_latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.notify_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.result_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cold_job_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.pod_cold_starts", Unit: "count", Better: "lower"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.store_create_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.castore_put_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.castore_get_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.auth_lookup_us", Unit: "us", Better: "lower"},
	{Name: "serve.send_lag_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// countMetrics must repeat exactly between two runs of the same code
// and seed in float64; -selfcheck enforces it.
var countMetrics = []string{"search.tasks", "likelihood.ops", "foreman.dispatched", "serve.cache_hits"}
