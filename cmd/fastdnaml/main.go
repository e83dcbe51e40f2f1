// Command fastdnaml infers maximum likelihood phylogenetic trees from a
// PHYLIP DNA alignment, reproducing the serial and parallel fastDNAml
// program of the paper. It runs serially by default, in parallel on one
// machine with -workers, or as the master of a distributed run with
// -listen (workers join with cmd/fdworker).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/fileio"
	"repro/internal/mlsearch"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/viewer"
)

func main() {
	var o options
	o.bindFlags(flag.CommandLine)
	inPath := flag.String("in", "", "PHYLIP alignment (required)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("fastdnaml", buildinfo.String())
		return
	}
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "fastdnaml: -in alignment required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*inPath, o); err != nil {
		fmt.Fprintln(os.Stderr, "fastdnaml:", err)
		os.Exit(1)
	}
}

// options is the command line: core.Options, which the model, search and
// runtime flags fill directly, plus what only this program knows — input
// and output paths, the distributed master's settings and the run modes.
type options struct {
	core.Options
	netWorkers                                     int
	taskTimeout                                    time.Duration
	quiet                                          bool
	ratesPath, weightsPath, outPrefix, progressOut string
	listen                                         string
	userTrees                                      string
	bootstrap                                      int
	checkpoint, resume                             string
	statusAddr, benchJSON                          string

	// start stamps the run's wall clock and runName names the
	// BENCH_<run>.json file. (Obs is created when -status-addr or
	// -bench-json asks for instrumentation.)
	start   time.Time
	runName string
}

// bindFlags declares every flag but -in and -version on fs.
func (o *options) bindFlags(fs *flag.FlagSet) {
	o.Spec.BindFlags(fs)
	fs.IntVar(&o.MaxConcurrentJumbles, "concurrent-jumbles", 0, "jumbles (or bootstrap replicates) run concurrently over the shared worker fleet (0 = min(jumbles, workers); results identical at any setting)")
	fs.IntVar(&o.Workers, "workers", 0, "parallel worker processes on this machine (0 = serial)")
	fs.IntVar(&o.Threads, "threads", 1, "likelihood kernel threads per evaluator (results are bit-identical at any count)")
	fs.BoolVar(&o.WithMonitor, "monitor", false, "attach the monitor (parallel runs): membership and inline-evaluation lines on stderr, run counters in the -bench-json report")
	fs.StringVar(&o.ratesPath, "rates", "", "per-site rate file (dnarates output)")
	fs.StringVar(&o.weightsPath, "weights", "", "per-site weight file")
	fs.StringVar(&o.outPrefix, "out", "", "output prefix for .trees/.best.tree/.consensus.tree files")
	fs.StringVar(&o.progressOut, "progress-out", "", "append each adopted best tree to this file (for treeview)")
	fs.StringVar(&o.listen, "listen", "", "run as distributed master listening on this address")
	fs.IntVar(&o.netWorkers, "net-workers", 0, "number of fdworker processes expected (with -listen)")
	fs.DurationVar(&o.taskTimeout, "task-timeout", 60*time.Second, "distributed runs: re-dispatch a slice of tasks whose worker has not answered it within this (0 disables)")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-jumble output")
	fs.StringVar(&o.userTrees, "usertrees", "", "evaluate and rank the trees in this file instead of searching")
	fs.IntVar(&o.bootstrap, "bootstrap", 0, "run this many bootstrap replicates instead of a plain search")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "write a restart manifest here after every taxon addition (atomically; any -jumbles, any runtime)")
	fs.StringVar(&o.resume, "resume", "", "resume a search from this restart file")
	fs.StringVar(&o.statusAddr, "status-addr", "", "serve /metrics, /status, and /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	fs.StringVar(&o.benchJSON, "bench-json", "", "write a BENCH_<run>.json report into this directory at end of run")
}

// conflictingFlags rejects the combinations in which one flag would be
// silently ignored: the user-tree and bootstrap modes run no resumable
// or distributed search, and a distributed master has no local workers.
func conflictingFlags(o options) error {
	mode := ""
	switch {
	case o.userTrees != "":
		mode = "-usertrees"
	case o.bootstrap > 0:
		mode = "-bootstrap"
	}
	if mode != "" {
		for _, f := range []struct{ name, value string }{{"-checkpoint", o.checkpoint}, {"-resume", o.resume}, {"-listen", o.listen}} {
			if f.value != "" {
				return fmt.Errorf("%s cannot be combined with %s: that mode neither records restart files nor hosts network workers", mode, f.name)
			}
		}
	}
	if o.listen != "" && o.Workers > 0 {
		return fmt.Errorf("-listen cannot be combined with -workers: a distributed master's workers join over the network (-net-workers is how many to wait for)")
	}
	return nil
}

func run(inPath string, o options) error {
	if err := conflictingFlags(o); err != nil {
		return err
	}
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	a, err := seq.ReadPhylip(f)
	f.Close()
	if err != nil {
		return err
	}
	if o.ratesPath != "" {
		if o.SiteRates, err = fileio.ReadFloatsFile(o.ratesPath); err != nil {
			return err
		}
	}
	if o.weightsPath != "" {
		if o.Weights, err = fileio.ReadFloatsFile(o.weightsPath); err != nil {
			return err
		}
	}

	var progressFile *os.File
	if o.progressOut != "" {
		progressFile, err = os.Create(o.progressOut)
		if err != nil {
			return err
		}
		defer progressFile.Close()
	}
	// Concurrent jumbles report progress from several goroutines; the
	// mutex keeps the file writes and console lines whole.
	var progressMu sync.Mutex
	progress := func(j int, e mlsearch.ProgressEvent) {
		progressMu.Lock()
		defer progressMu.Unlock()
		if progressFile != nil {
			fmt.Fprintln(progressFile, e.BestNewick)
		}
		if !o.quiet {
			fmt.Printf("jumble %d: %-9s %3d taxa  lnL %.4f\n", j+1, e.Kind, e.TaxaInTree, e.BestLnL)
		}
	}

	// SIGINT/SIGTERM stop the search at its next round boundary; the
	// checkpoint paths then flush a current restart file and exit 0.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "fastdnaml: signal received; stopping at the next round boundary (repeat to kill)")
		signal.Stop(sigc)
		close(stop)
	}()
	o.Stop = stop
	o.MonitorOut = obs.NewLockedWriter(os.Stderr)
	o.Progress = progress

	o.start = time.Now()
	o.runName = strings.TrimSuffix(filepath.Base(inPath), filepath.Ext(inPath)) +
		"_s" + strconv.FormatInt(o.Seed, 10)
	if o.statusAddr != "" || o.benchJSON != "" {
		o.Obs = mlsearch.NewRunObserver(obs.NewRegistry(), obs.NewBus())
		if o.statusAddr != "" {
			srv, err := obs.NewStatusServer(obs.StatusOptions{
				Addr:     o.statusAddr,
				Registry: o.Obs.Registry(),
				Snapshot: func() any { return o.Obs.Snapshot() },
			})
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("status server on http://%s (/metrics, /status, /debug/pprof)\n", srv.Addr())
		}
	}

	switch {
	case o.userTrees != "":
		return runUserTrees(a, o)
	case o.bootstrap > 0:
		return runBootstrap(a, o)
	}
	return runSearch(a, o)
}

// finishInterrupted turns a signal-stop into a clean exit: flush the
// restart manifest if one is being recorded, tell the user how to
// resume, and return nil so the process exits 0. Any other error passes
// through unchanged.
func finishInterrupted(err error, rec *mlsearch.ManifestRecorder, o options) error {
	if !errors.Is(err, mlsearch.ErrStopped) {
		return err
	}
	if rec != nil {
		if ferr := rec.Flush(); ferr != nil {
			return fmt.Errorf("interrupted, and the final checkpoint failed: %w", ferr)
		}
	}
	switch {
	case o.checkpoint != "":
		fmt.Printf("interrupted; restart file %s is current — resume with -resume %s\n", o.checkpoint, o.checkpoint)
	case o.resume != "":
		fmt.Printf("interrupted; resume again with -resume %s\n", o.resume)
	default:
		fmt.Println("interrupted (run with -checkpoint to make interrupted searches resumable)")
	}
	return nil
}

// runUserTrees evaluates and ranks given topologies (fastDNAml's
// user-tree mode).
func runUserTrees(a *seq.Alignment, o options) error {
	cfg, _, err := core.Prepare(a, o.Options)
	if err != nil {
		return err
	}
	trees, err := fileio.ReadTreesFile(o.userTrees, a.Names)
	if err != nil {
		return err
	}
	ranked, err := mlsearch.KishinoHasegawa(cfg, trees)
	if err != nil {
		return err
	}
	fmt.Printf("%d user trees, best first (Kishino-Hasegawa test):\n", len(ranked))
	var lines []string
	for rank, r := range ranked {
		verdict := "best"
		if r.Diff != 0 {
			verdict = "not significantly worse"
			if r.SignificantlyWorse {
				verdict = "SIGNIFICANTLY WORSE (5% level)"
			}
		}
		fmt.Printf("%3d. input tree %d  lnL %.4f  diff %.4f  sd %.4f  %s\n",
			rank+1, r.Index+1, r.LnL, r.Diff, r.SD, verdict)
		lines = append(lines, r.Newick)
	}
	if o.outPrefix != "" {
		if err := fileio.WriteLines(o.outPrefix+".ranked.trees", lines); err != nil {
			return err
		}
		fmt.Printf("wrote %s.ranked.trees (optimized branch lengths)\n", o.outPrefix)
	}
	return nil
}

// runBootstrap resamples columns and reports split support.
func runBootstrap(a *seq.Alignment, o options) error {
	fmt.Printf("bootstrap: %d replicates\n", o.bootstrap)
	res, err := core.Bootstrap(a, o.Options, o.bootstrap)
	if err != nil {
		return finishInterrupted(err, nil, o)
	}
	fmt.Printf("\nbootstrap consensus (%d splits retained):\n%s\n",
		len(res.Consensus.Support), res.Consensus.Tree.Newick())
	fmt.Println("\nsplit support (bootstrap proportions):")
	for _, f := range sortedSupports(res.Consensus.Support) {
		fmt.Printf("  %5.1f%%\n", 100*f)
	}
	if o.outPrefix != "" {
		var lines []string
		for _, tr := range res.Trees {
			lines = append(lines, tr.Newick())
		}
		if err := fileio.WriteLines(o.outPrefix+".boot.trees", lines); err != nil {
			return err
		}
		if err := fileio.WriteLines(o.outPrefix+".boot.consensus.tree", []string{res.Consensus.Tree.Newick()}); err != nil {
			return err
		}
		fmt.Printf("wrote %s.boot.trees and %s.boot.consensus.tree\n", o.outPrefix, o.outPrefix)
	}
	return nil
}

func sortedSupports(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// wireRestart wires -resume and -checkpoint into runOpt. A resumed run
// adopts the manifest's jumble count when -jumbles was left at its
// default. It returns the manifest recorder when -checkpoint is
// writing one, so an interrupted run can flush it.
func wireRestart(runOpt *mlsearch.RunOptions, o options) (*mlsearch.ManifestRecorder, error) {
	if o.resume != "" {
		m, err := mlsearch.LoadResume(o.resume)
		if err != nil {
			return nil, err
		}
		if runOpt.Jumbles > 1 && runOpt.Jumbles != m.Jumbles {
			return nil, fmt.Errorf("-jumbles %d does not match the manifest's %d jumbles", runOpt.Jumbles, m.Jumbles)
		}
		runOpt.Jumbles = m.Jumbles
		runOpt.ResumeManifest = m
		done := 0
		for j := 0; j < m.Jumbles; j++ {
			if cp, ok := m.Checkpoint(j); ok && cp.Phase == mlsearch.PhaseDone {
				done++
			}
		}
		fmt.Printf("resuming manifest: %d of %d jumbles done\n", done, m.Jumbles)
	}
	if o.checkpoint == "" {
		return nil, nil
	}
	rec := mlsearch.NewManifestRecorder(o.checkpoint, runOpt.Jumbles, runOpt.ResumeManifest)
	runOpt.OnCheckpoint = func(_ int, cp mlsearch.Checkpoint) {
		if err := rec.Record(cp); err != nil {
			fmt.Fprintln(os.Stderr, "fastdnaml: checkpoint:", err)
		}
	}
	return rec, nil
}

// runSearch is the one search path: serial by default, the in-process
// parallel runtime with -workers, or the elastic TCP master with -listen,
// where workers join at any time via cmd/fdworker. -net-workers is only a
// start barrier: the master waits for that many workers before the first
// round, then tolerates joins and departures for the rest of the run
// (evaluating inline if the worker set ever empties). -checkpoint and
// -resume apply to all three.
func runSearch(a *seq.Alignment, o options) error {
	cfg, opt, err := core.Prepare(a, o.Options)
	if err != nil {
		return err
	}
	runOpt := mlsearch.RunOptions{
		Transport:            mlsearch.Serial,
		Workers:              opt.Workers,
		WithMonitor:          opt.WithMonitor,
		MonitorOut:           opt.MonitorOut,
		Jumbles:              opt.Jumbles,
		MaxConcurrentJumbles: opt.MaxConcurrentJumbles,
		Obs:                  opt.Obs,
		Progress:             opt.Progress,
		Stop:                 opt.Stop,
	}
	switch {
	case o.listen != "":
		runOpt.Transport = mlsearch.TCP
		runOpt.Addr = o.listen
		runOpt.Workers = o.netWorkers
		runOpt.Foreman.TaskTimeout = o.taskTimeout
		runOpt.OnListen = func(addr net.Addr) {
			fmt.Printf("listening on %s; workers join with:\n", addr)
			fmt.Printf("  fdworker -connect %s\n", addr)
			if o.netWorkers > 0 {
				fmt.Printf("waiting for %d worker(s) before starting\n", o.netWorkers)
			}
		}
		runOpt.OnMember = func(rank int, joined bool) {
			if o.quiet {
				return
			}
			if joined {
				fmt.Printf("worker %d joined\n", rank)
			} else {
				fmt.Printf("worker %d left\n", rank)
			}
		}
	case opt.Workers > 0:
		runOpt.Transport = mlsearch.Local
	}
	rec, err := wireRestart(&runOpt, o)
	if err != nil {
		return err
	}
	out, err := mlsearch.Run(cfg, runOpt)
	if err != nil {
		return finishInterrupted(err, rec, o)
	}
	inf, err := core.NewInference(cfg, out, opt)
	if err != nil {
		return err
	}
	return report(inf, a, o)
}

func report(inf *core.Inference, a *seq.Alignment, o options) error {
	fmt.Println()
	for i, j := range inf.Jumbles {
		marker := " "
		if &inf.Jumbles[i] == inf.Best {
			marker = "*"
		}
		fmt.Printf("%s jumble %d (seed %d): lnL %.4f\n", marker, i+1, j.Seed, j.LnL)
	}
	fmt.Printf("\nbest tree (lnL %.4f):\n%s\n", inf.Best.LnL, inf.Best.Newick)
	if ascii, err := viewer.ASCII(inf.Best.Tree, viewer.ASCIIOptions{Width: 78}); err == nil {
		fmt.Println()
		fmt.Print(ascii)
	}
	if inf.Consensus != nil {
		fmt.Printf("\nmajority rule consensus (%d trees):\n%s\n", len(inf.Jumbles), inf.Consensus.Tree.Newick())
	}
	if o.outPrefix != "" {
		var lines []string
		for _, j := range inf.Jumbles {
			lines = append(lines, j.Newick)
		}
		if err := fileio.WriteLines(o.outPrefix+".trees", lines); err != nil {
			return err
		}
		if err := fileio.WriteLines(o.outPrefix+".best.tree", []string{inf.Best.Newick}); err != nil {
			return err
		}
		if inf.Consensus != nil {
			if err := fileio.WriteLines(o.outPrefix+".consensus.tree", []string{inf.Consensus.Tree.Newick()}); err != nil {
				return err
			}
		}
		fmt.Printf("\nwrote %s.trees and %s.best.tree\n", o.outPrefix, o.outPrefix)
	}
	return writeBenchReport(inf, o)
}

// writeBenchReport dumps a machine-readable BENCH_<run>.json into the
// -bench-json directory: per-jumble outcomes, monitor counters when the
// monitor ran, and the observer's run snapshot when one was attached.
func writeBenchReport(inf *core.Inference, o options) error {
	if o.benchJSON == "" {
		return nil
	}
	totals := map[string]float64{
		"jumbles":  float64(len(inf.Jumbles)),
		"best_lnl": inf.Best.LnL,
		"threads":  float64(o.Threads),
	}
	type jumbleBench struct {
		Seed  int64   `json:"seed"`
		LnL   float64 `json:"lnl"`
		Tasks int     `json:"tasks"`
		Ops   uint64  `json:"ops"`
	}
	var jb []jumbleBench
	for _, j := range inf.Jumbles {
		b := jumbleBench{Seed: j.Seed, LnL: j.LnL}
		if j.Search != nil {
			b.Tasks = j.Search.TotalTasks
			b.Ops = j.Search.TotalOps
			totals["tasks"] += float64(b.Tasks)
			totals["ops"] += float64(b.Ops)
		}
		jb = append(jb, b)
	}
	details := map[string]any{"jumbles": jb}
	if m := inf.Monitor; m != nil {
		details["monitor"] = map[string]int{
			"rounds": m.Rounds, "dispatches": m.Dispatches, "results": m.Results,
			"deaths": len(m.Deaths), "revivals": len(m.Revivals),
			"joins": m.Joins, "leaves": m.Leaves, "inline": m.Inline,
		}
	}
	if o.Obs != nil {
		details["run"] = o.Obs.Snapshot()
	}
	path, err := obs.WriteBench(o.benchJSON, obs.BenchReport{
		Run:       o.runName,
		StartedAt: o.start,
		Totals:    totals,
		Details:   details,
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
