// Command fdworker is a distributed fastDNAml worker process: it joins a
// master started with `fastdnaml -listen`, receives its rank and the
// alignment in the join handshake, and evaluates trees with the master's
// configuration (model, weights, rates, engine) until shutdown.
// Workers carry no pre-assigned identity and may start before the
// master, join mid-run, or outlive a master restart: by default the
// worker reconnects with jittered exponential backoff whenever its
// connection drops. Workers may run anywhere a socket can reach the
// master — the reproduction of the paper's geographically distributed
// PVM workers and cluster nodes (§2.2), and the behaviour the planned
// Condor/screensaver workers (§5) would need.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/mlsearch"
	"repro/internal/obs"
)

func main() {
	var (
		connect    = flag.String("connect", "", "master address (required), e.g. host:7946")
		reconnect  = flag.String("reconnect", "on", "reconnect policy: on, off, or base=250ms,cap=15s,max=0")
		flaky      = flag.Float64("flaky", 0, "drop this fraction of replies (fault tolerance demos)")
		seed       = flag.Int64("flaky-seed", 1, "seed for -flaky")
		statusAddr = flag.String("status-addr", "", "serve /metrics, /status, and /debug/pprof on this address")
		threads    = flag.Int("threads", 1, "likelihood kernel threads on this host (results are bit-identical at any count)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("fdworker", buildinfo.String())
		return
	}
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "fdworker: -connect is required")
		flag.Usage()
		os.Exit(2)
	}
	policy, err := mlsearch.ParseReconnectPolicy(*reconnect)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdworker:", err)
		os.Exit(2)
	}
	hooks := mlsearch.WorkerHooks{Threads: *threads}
	if *statusAddr != "" {
		reg := obs.NewRegistry()
		wobs := mlsearch.NewWorkerObserver(reg)
		hooks.Obs = wobs
		srv, err := obs.NewStatusServer(obs.StatusOptions{
			Addr:     *statusAddr,
			Registry: reg,
			Snapshot: func() any { return wobs.Snapshot() },
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdworker:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("status server on http://%s (/metrics, /status, /debug/pprof)\n", srv.Addr())
	}
	if *flaky > 0 {
		rng := rand.New(rand.NewSource(*seed))
		hooks.BeforeReply = func(task mlsearch.Task, res mlsearch.Result) bool {
			return rng.Float64() >= *flaky
		}
	}
	if err := mlsearch.ServeElastic(*connect, hooks, policy); err != nil {
		fmt.Fprintln(os.Stderr, "fdworker:", err)
		os.Exit(1)
	}
}
