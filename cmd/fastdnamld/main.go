// Command fastdnamld is the persistent multi-tenant inference daemon:
// it owns a bounded fleet of warm dataset-keyed worker pods and serves
// maximum likelihood searches over HTTP. Clients submit PHYLIP
// alignments plus options as jobs (POST /v1/jobs), poll or stream
// progress, and fetch results; the daemon schedules tenants
// weighted-fair, memoizes completed results content-addressed, and
// checkpoints every running job so a restart over the same data
// directory resumes where it stopped. Observability (/metrics, /status,
// /healthz, /debug/pprof) shares the API port.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var (
		addr            = flag.String("addr", "127.0.0.1:8844", "listen address for the API and observability endpoints")
		dataDir         = flag.String("data", "fastdnamld-data", "durable state directory (job records, restart manifests, results)")
		workers         = flag.Int("workers", 2, "worker goroutines per dataset pod")
		maxPods         = flag.Int("max-pods", 2, "warm dataset pods kept at once")
		idleTTL         = flag.Duration("pod-idle-ttl", 5*time.Minute, "idle time before a warm pod is shut down")
		threads         = flag.Int("threads", 1, "likelihood kernel threads per worker (results are bit-identical at any count)")
		taskTimeout     = flag.Duration("task-timeout", time.Minute, "re-dispatch a slice of tasks whose worker has not answered it within this")
		maxActive       = flag.Int("max-active", 2, "jobs running concurrently")
		maxQueued       = flag.Int("max-queued", 64, "global queue depth before submissions get 429")
		maxQueuedTenant = flag.Int("max-queued-per-tenant", 16, "one tenant's queue depth before its submissions get 429")
		authMode        = flag.String("auth", "keys", "authentication mode: keys (require -api-keys) or off (dev mode, tenants self-declared)")
		apiKeys         = flag.String("api-keys", "", "per-tenant API key file (`<key> <tenant>` lines); SIGHUP reloads it")
		rate            = flag.Float64("rate", 0, "per-tenant submission rate limit in requests/second (0 = unlimited)")
		burst           = flag.Int("burst", 1, "token-bucket burst for -rate")
		jobTTL          = flag.Duration("job-ttl", 0, "evict terminal jobs (memory and disk) after this (0 = keep forever)")
		resultTTL       = flag.Duration("result-ttl", 0, "delete cached results unused for this long (0 = keep forever)")
		maxResultBytes  = flag.Int64("max-results-bytes", 0, "LRU-trim the result store past this many bytes (0 = unbounded)")
		gcInterval      = flag.Duration("gc-interval", 30*time.Second, "pod-reap and retention-GC tick")
		version         = flag.Bool("version", false, "print version and exit")
	)
	weights := map[string]float64{}
	flag.Func("tenant-weight", "tenant=weight fair-share weight, repeatable (unlisted tenants weigh 1)", func(s string) error {
		name, val, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want tenant=weight, got %q", s)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return fmt.Errorf("bad weight %q", val)
		}
		weights[name] = w
		return nil
	})
	flag.Parse()
	if *version {
		fmt.Println("fastdnamld", buildinfo.String())
		return
	}

	logger := log.New(os.Stderr, "fastdnamld: ", log.LstdFlags)

	// Auth is on unless explicitly disabled: an open daemon is a dev
	// convenience, not a deployment default.
	var auth *serve.KeyAuth
	switch *authMode {
	case "off":
		if *apiKeys != "" {
			logger.Fatal("-api-keys given with -auth=off; pick one")
		}
		logger.Printf("WARNING: -auth=off: tenants are self-declared and every job is visible to every client")
	case "keys":
		if *apiKeys == "" {
			logger.Fatal("-auth=keys (the default) needs -api-keys <file>; use -auth=off for an open dev daemon")
		}
		var err error
		auth, err = serve.NewKeyAuth(*apiKeys)
		if err != nil {
			logger.Fatal(err)
		}
	default:
		logger.Fatalf("unknown -auth mode %q (keys, off)", *authMode)
	}

	reg := obs.NewRegistry()
	srv, err := serve.NewServer(serve.Options{
		DataDir: *dataDir,
		Fleet: serve.FleetOptions{
			Workers:     *workers,
			MaxPods:     *maxPods,
			IdleTTL:     *idleTTL,
			Threads:     *threads,
			TaskTimeout: *taskTimeout,
		},
		MaxActive:          *maxActive,
		MaxQueued:          *maxQueued,
		MaxQueuedPerTenant: *maxQueuedTenant,
		TenantWeights:      weights,
		Auth:               auth,
		Rate:               *rate,
		Burst:              *burst,
		JobTTL:             *jobTTL,
		ResultTTL:          *resultTTL,
		MaxResultsBytes:    *maxResultBytes,
		GCInterval:         *gcInterval,
		Registry:           reg,
		Bus:                obs.NewBus(),
		Logf:               logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	status, err := obs.NewStatusServer(obs.StatusOptions{
		Addr:     *addr,
		Registry: reg,
		Snapshot: srv.Snapshot,
	})
	if err != nil {
		logger.Fatal(err)
	}
	status.Handle("/v1/", srv.Handler())
	// The smoke test and operators parse this line for the bound port.
	fmt.Printf("fastdnamld: serving on http://%s\n", status.Addr())
	fmt.Printf("  API: POST /v1/jobs, GET /v1/jobs/{id}[/events|/result], DELETE /v1/jobs/{id}\n")
	fmt.Printf("  obs: /metrics /status /healthz /debug/pprof  (version %s)\n", buildinfo.Version)

	// SIGHUP hot-reloads the API key file: key rotation without a
	// restart. A broken file keeps the previous keys in effect.
	if auth != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if n, err := auth.Reload(); err != nil {
					logger.Printf("SIGHUP: api keys NOT reloaded: %v", err)
				} else {
					logger.Printf("SIGHUP: reloaded %d api key(s) from %s", n, *apiKeys)
				}
			}
		}()
	}

	// Graceful shutdown: stop admitting, halt running searches at their
	// next round boundary (manifests flush, jobs persist as queued),
	// then exit 0. The next start over the same -data resumes them.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	signal.Stop(sigc) // a second signal kills immediately
	logger.Printf("%s received; draining (second signal kills)", sig)
	if err := srv.Close(); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	_ = status.Close()
	logger.Printf("stopped; restart with -data %s to resume incomplete jobs", *dataDir)
}
