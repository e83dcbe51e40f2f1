// Cluster: the paper's distributed deployment in one process — an
// elastic TCP master (router + master + foreman roles, monitor attached)
// with worker processes joining over sockets carrying no pre-assigned
// identity, including an unreliable worker whose dropped replies the
// foreman's fault tolerance recovers (paper §2.2). In real deployments
// the workers are cmd/fdworker processes on other machines; here they
// are goroutines dialing loopback so the example is self-contained.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mlsearch"
	"repro/internal/simulate"
)

func main() {
	// Build the run's Config. It is all the master needs: every joining
	// worker is sent it — patterns, weights, rates and the model's numbers
	// — in the join handshake, so any model and any weighting run
	// distributed exactly as they run serially.
	ds, err := simulate.New(simulate.Options{Taxa: 12, Sites: 300, Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	cfg, _, err := core.Prepare(ds.Alignment, core.Options{Spec: core.Spec{Model: "HKY85", Kappa: 3, Seed: 5}})
	if err != nil {
		log.Fatal(err)
	}

	const workers = 3
	opt := mlsearch.RunOptions{
		Transport:  mlsearch.TCP,
		Addr:       "127.0.0.1:0",
		Workers:    workers, // wait for all three before the first round
		MonitorOut: os.Stdout,
		// The paper's user-specified timeout.
		Foreman: mlsearch.ForemanOptions{TaskTimeout: 300 * time.Millisecond},
	}

	addrCh := make(chan net.Addr, 1)
	opt.OnListen = func(a net.Addr) { addrCh <- a }

	var wg sync.WaitGroup
	var outcome *mlsearch.RunOutcome
	var masterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		outcome, masterErr = mlsearch.Run(cfg, opt)
	}()

	addr := (<-addrCh).String()
	fmt.Printf("master listening on %s; %d anonymous workers joining\n", addr, workers)

	// Worker "processes": they dial with no rank; the join handshake
	// assigns one and ships the run's Config. The last worker is unreliable
	// and silently drops a fifth of its replies. The foreman times those
	// tasks out, re-dispatches them, and reinstates the worker when it
	// answers again — watch the monitor lines.
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hooks := mlsearch.WorkerHooks{}
			if i == workers-1 {
				rng := rand.New(rand.NewSource(1))
				hooks.BeforeReply = func(task mlsearch.Task, res mlsearch.Result) bool {
					return rng.Float64() >= 0.2
				}
			}
			if err := mlsearch.ServeElastic(addr, hooks, mlsearch.ReconnectPolicy{Disabled: true}); err != nil {
				log.Printf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if masterErr != nil {
		log.Fatal(masterErr)
	}

	res := outcome.Results[0]
	fmt.Printf("\ninferred tree (lnL %.4f) after %d tasks\n", res.LnL, res.TotalTasks)
	mon := outcome.Monitor
	fmt.Printf("monitor: %d workers joined, %d dispatches for %d results (re-dispatches due to faults: %d)\n",
		mon.Joins, mon.Dispatched, mon.Completed, mon.Dispatched-mon.Completed)
	for _, w := range mon.Workers {
		fmt.Printf("  worker rank %d completed %d tasks (removed %dx, reinstated %dx)\n",
			w.Rank, w.Tasks, w.Timeouts, w.Reinstates)
	}

	// The fault-tolerant run must agree exactly with a serial run.
	serial, err := mlsearch.Run(cfg, mlsearch.RunOptions{Transport: mlsearch.Serial})
	if err != nil {
		log.Fatal(err)
	}
	if serial.Results[0].BestNewick == res.BestNewick && serial.Results[0].LnL == res.LnL {
		fmt.Println("verified: distributed result identical to the serial program")
	} else {
		fmt.Println("WARNING: distributed result diverged from serial!")
	}
}
