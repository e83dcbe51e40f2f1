package mlsearch

import (
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// TestTCPChaosSoak is the elastic-membership soak: a TCP run starts with
// two workers, a third joins mid-round, one of the originals is
// "SIGKILLed" (its live connection severed from outside) and rejoins
// under a tiny reconnect backoff, and the late joiner silently drops a
// quarter of its replies. Through all of it the run must finish and the
// final tree and log-likelihood must be bit-identical to the serial
// answer — membership chaos is pure work distribution (paper §2.2).
// The foreman pipelines two slices per worker, so the soak also
// exercises pipelining under churn. The workers' mixed thread counts do
// not reach the shard pool: 160 sites are far under
// likelihood.MinPoolPad, so every engine runs its kernels inline
// (TestParallelMatchesSerialThreadedPipelined covers the pool).
func TestTCPChaosSoak(t *testing.T) {
	soakStart := time.Now()
	cfg := testConfig(t, 9, 160, 41)
	cfg.Seed, cfg.RearrangeExtent, cfg.Threads = 5, 1, 2
	serial, err := runSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos triggers, driven off the master's progress stream so they
	// land mid-run rather than before or after it.
	joinCh := make(chan struct{}) // third worker starts when closed
	killCh := make(chan struct{}) // victim's connection is severed when closed
	var joinOnce, killOnce sync.Once

	opt := RunOptions{
		Transport: TCP,
		Addr:      "127.0.0.1:0",
		Workers:   2, // barrier: the two original workers
		Obs:       NewRunObserver(nil, nil),
		Foreman:   ForemanOptions{TaskTimeout: 200 * time.Millisecond, Pipeline: 2},
		Progress: func(jumble int, ev ProgressEvent) {
			if ev.TaxaInTree >= 5 {
				joinOnce.Do(func() { close(joinCh) })
			}
			if ev.TaxaInTree >= 6 {
				killOnce.Do(func() { close(killCh) })
			}
		},
	}
	addrCh := make(chan net.Addr, 1)
	opt.OnListen = func(a net.Addr) { addrCh <- a }

	var wg sync.WaitGroup
	var outcome *RunOutcome
	var masterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		outcome, masterErr = Run(cfg, opt)
	}()
	addr := (<-addrCh).String()

	fastRetry := ReconnectPolicy{Base: 5 * time.Millisecond, Cap: 40 * time.Millisecond, MaxAttempts: 100}

	// Worker A: well-behaved, with a 2-thread engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ServeElastic(addr, WorkerHooks{Threads: 2}, ReconnectPolicy{Disabled: true}); err != nil {
			t.Errorf("worker A: %v", err)
		}
	}()

	// Worker B, the victim: its current connection is captured on attach
	// and severed from outside when killCh fires — the process-level
	// equivalent of a SIGKILL mid-task. ServeElastic then reconnects and
	// the worker rejoins under a fresh rank. Errors are tolerated: if the
	// kill lands near the end of the run, the final reconnect attempts
	// race the router shutting down.
	var victimMu sync.Mutex
	var victimConn comm.Communicator
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ServeElastic(addr, WorkerHooks{
			Threads: 3,
			OnAttach: func(c comm.Communicator) {
				victimMu.Lock()
				victimConn = c
				victimMu.Unlock()
			},
		}, fastRetry)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-killCh
		victimMu.Lock()
		c := victimConn
		victimMu.Unlock()
		if c != nil {
			c.Close()
		}
	}()

	// Worker C joins mid-round and drops every 4th reply on the floor;
	// the foreman's timeout machinery must re-dispatch those trees.
	var dropMu sync.Mutex
	evals, dropped := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-joinCh
		err := ServeElastic(addr, WorkerHooks{
			BeforeReply: func(task Task, res Result) bool {
				dropMu.Lock()
				defer dropMu.Unlock()
				evals++
				if evals%4 == 0 {
					dropped++
					return false
				}
				return true
			},
		}, ReconnectPolicy{Disabled: true})
		if err != nil {
			t.Errorf("worker C: %v", err)
		}
	}()

	wg.Wait()
	if masterErr != nil {
		t.Fatal(masterErr)
	}

	res := outcome.Results[0]
	if res.BestNewick != serial.BestNewick {
		t.Errorf("chaos run tree differs from serial")
	}
	if res.LnL != serial.LnL {
		t.Errorf("chaos run lnL %g != serial %g", res.LnL, serial.LnL)
	}

	snap := outcome.Monitor
	if snap == nil {
		t.Fatal("no run snapshot")
	}
	// 2 originals + the mid-round joiner; the victim's rejoin usually
	// adds a 4th but may race the end of the run.
	if snap.Joins < 3 {
		t.Errorf("observer saw %d joins, want >= 3", snap.Joins)
	}
	if snap.Leaves < 1 {
		t.Errorf("observer saw %d leaves, want >= 1 (the severed victim)", snap.Leaves)
	}
	dropMu.Lock()
	nd := dropped
	dropMu.Unlock()
	if nd == 0 {
		t.Log("note: reply-drop injection never triggered (late joiner saw <4 tasks)")
	}

	// CI archives the soak as a BENCH_*.json artifact when asked.
	if dir := os.Getenv("FDML_BENCH_DIR"); dir != "" {
		path, err := obs.WriteBench(dir, obs.BenchReport{
			Run:       "chaos_soak",
			StartedAt: soakStart,
			Totals: map[string]float64{
				"tasks": float64(res.TotalTasks), "ops": float64(res.TotalOps),
				"lnl":   res.LnL,
				"joins": float64(snap.Joins), "leaves": float64(snap.Leaves),
				"dropped_replies": float64(nd),
			},
			Details: map[string]any{"workers": snap.Workers},
		})
		if err != nil {
			t.Fatalf("bench report: %v", err)
		}
		t.Logf("wrote %s", path)
	}
}

// countingComm wraps a Communicator and counts RecvTimeout calls, to pin
// down the foreman's receive discipline.
type countingComm struct {
	comm.Communicator
	mu           sync.Mutex
	recvTimeouts int
}

func (c *countingComm) RecvTimeout(source int, tag comm.Tag, d time.Duration) (comm.Message, error) {
	c.mu.Lock()
	c.recvTimeouts++
	c.mu.Unlock()
	return c.Communicator.RecvTimeout(source, tag, d)
}

// TestForemanBlocksWithoutTimeout: with TaskTimeout == 0 the foreman has
// no deadline to poll for, so it must block in plain Recv rather than
// waking every tick through RecvTimeout (the old behaviour burned CPU on
// idle clusters).
func TestForemanBlocksWithoutTimeout(t *testing.T) {
	world := newTestWorld(t, 3)
	lay := Layout{Workers: []int{2}}
	counted := &countingComm{Communicator: world[1]}
	world[1] = counted

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			msg, err := world[2].Recv(comm.AnySource, comm.AnyTag)
			if err != nil {
				return
			}
			if msg.Tag == comm.TagShutdown {
				_ = world[2].Send(1, comm.TagShutdown, nil)
				return
			}
			task, err := UnmarshalTask(msg.Data)
			if err != nil {
				t.Error(err)
				return
			}
			// Delay long enough that a polling foreman would rack up
			// RecvTimeout wakeups while waiting.
			time.Sleep(120 * time.Millisecond)
			res := Result{TaskID: task.ID, Round: task.Round, Job: task.Job, LnL: -1, Ops: 1}
			if err := world[2].Send(1, comm.TagResult, MarshalResult(res)); err != nil {
				return
			}
		}
	}()

	foreman, disp := newTestMaster(t, world, lay, ForemanOptions{}, nil)
	if _, err := disp.Dispatch([]Task{{ID: 1, Round: 1}}); err != nil {
		t.Fatal(err)
	}
	// Snapshot before Shutdown: the shutdown ack drain is the one place
	// the foreman legitimately polls with RecvTimeout.
	counted.mu.Lock()
	n := counted.recvTimeouts
	counted.mu.Unlock()
	if err := foreman.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n != 0 {
		t.Errorf("foreman made %d RecvTimeout calls with TaskTimeout=0; want 0 (plain blocking Recv)", n)
	}
}
