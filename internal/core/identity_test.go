package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// axes is the identity matrix's one table: the values the generated rows
// draw from for each axis a row sets, in the order a row lists them —
// transport and workers, Run.Foreman.Pipeline, Threads, Spec.Engine,
// Spec.Jumbles, Run.MaxConcurrentJumbles, the model, Weights and
// SiteRates, the checkpoint resumed from, the site order. "-", or a value
// outside the table in a row kept from an older test, is a default or a
// setting that does not apply, and pairs with nothing.
var axes = [nAxes][]string{
	{"serial", "local1", "local2", "local3", "local4", "local7", "tcp1", "tcp2"},
	{"1", "2", "3", "4"},
	{"1", "2", "3", "4"},
	{"cached", "reference"},
	{"1", "4"},
	{"0", "1", "3", "4"},
	{"F84", "F84-3.5", "JC69", "K80", "HKY85", "GTR"},
	{"uniform", "weights", "rates", "weights,rates"},
	{"none", "0", "1", "final"},
	{"given", "permuted"},
}

const (
	axTransport = iota
	axPipeline
	axThreads
	axEngine
	axJumbles
	axConc
	axModel
	axData
	axRestart
	axSites
	nAxes
)

var modelSpecs = map[string]Spec{
	"F84":     {Model: "F84"},
	"F84-3.5": {Model: "F84", TTRatio: 3.5},
	"JC69":    {Model: "JC69"},
	"K80":     {Model: "K80", Kappa: 3},
	"HKY85":   {Model: "HKY85", Kappa: 3},
	"GTR":     {Model: "GTR", GTRRates: []float64{1, 2.5, 0.5, 0.75, 3, 1}},
}

// fixture is a simulated data set and the search seed run on it. The
// generated rows run on smallFixture or, with threads > 1, on
// poolFixture, whose every data kind keeps over likelihood.MinPoolPad
// patterns, so that the threads run on the shard pool.
type fixture struct {
	taxa, sites int
	sim         int64
	branch      float64
	seed        int64
}

var smallFixture, poolFixture = fixture{7, 150, 9, 0.12, 7}, fixture{6, 6000, 11, 2, 7}

type idRow struct {
	name string
	v    [nAxes]string
	fix  fixture
}

// num reads an axis value as a number, any other value as -1.
func num(value string) int {
	n, err := strconv.Atoi(value)
	if err != nil {
		return -1
	}
	return n
}

// allowed: threads > 1 only with the cached engine (and so the reference
// engine only on the small fixture), no pipeline on the serial transport.
func allowed(v [nAxes]string) bool {
	return !(v[axEngine] == "reference" && num(v[axThreads]) > 1) &&
		!(v[axTransport] == "serial" && num(v[axPipeline]) > 0)
}

// idPair is two table values of axes a < b.
type idPair struct {
	a, b   int
	va, vb string
}

// hold records every two values of v as held.
func hold(held map[idPair]bool, v [nAxes]string) {
	for a := range v {
		for b := a + 1; b < nAxes; b++ {
			held[idPair{a, b, v[a], v[b]}] = true
		}
	}
}

// openPairs lists the pairs of table values an allowed row can hold and
// held does not.
func openPairs(held map[idPair]bool) (open []idPair) {
	for a := range axes {
		for b := a + 1; b < nAxes; b++ {
			for _, va := range axes[a] {
				for _, vb := range axes[b] {
					var v [nAxes]string
					v[a], v[b] = va, vb
					if p := (idPair{a, b, va, vb}); allowed(v) && !held[p] {
						open = append(open, p)
					}
				}
			}
		}
	}
	return open
}

// pairwiseRows is the greedy all-pairs completion of rows. While a pair
// is open, it grows a candidate from the first open pair of each table
// value, setting the other axes in table order, each to the allowed value
// that makes the row hold the most open pairs per unit of cost (its run
// time in small-fixture searches), and adds the candidate with the most
// per unit of cost. Ties go to the earlier value, so every run generates
// the same rows.
func pairwiseRows(rows []idRow) (out []idRow) {
	held := map[idPair]bool{}
	for _, r := range rows {
		hold(held, r.v)
	}
	score := func(v [nAxes]string) float64 {
		n := 0.0
		for a := range v {
			for b := a + 1; b < nAxes; b++ {
				if v[a] != "" && v[b] != "" && !held[idPair{a, b, v[a], v[b]}] {
					n++
				}
			}
		}
		if num(v[axThreads]) > 1 {
			n /= 3
		}
		return n / float64(max(num(v[axJumbles]), 1))
	}
	for open := openPairs(held); len(open) > 0; open = openPairs(held) {
		var best [nAxes]string
		seeded := map[idPair]bool{}
		for _, p := range open {
			if seeded[idPair{a: p.a, va: p.va}] {
				continue
			}
			seeded[idPair{a: p.a, va: p.va}] = true
			var v [nAxes]string
			v[p.a], v[p.b] = p.va, p.vb
			for i := range v {
				for _, value := range axes[i] {
					if w := v; i != p.a && i != p.b {
						if w[i] = value; allowed(w) && (v[i] == "" || score(w) > score(v)) {
							v = w
						}
					}
				}
			}
			if score(v) > score(best) {
				best = v
			}
		}
		fix := smallFixture
		if num(best[axThreads]) > 1 {
			fix = poolFixture
		}
		best[axPipeline] = cmp.Or(best[axPipeline], "-") // none on the serial transport
		out = append(out, idRow{fmt.Sprintf("pairs-%02d", len(out)), best, fix})
		hold(held, best)
	}
	return out
}

// keptRows are the configurations of the enumerated determinism tests
// the matrix replaced, each named after its test, on that test's data.
// (TestParallelMatchesSerial, TestParallelMatchesSerialThreadedPipelined
// and TestConcurrentJumblesMatchSequential stay in internal/mlsearch, so
// their Local configurations are not repeated here.)
func keptRows() (rows []idRow) {
	add := func(name string, fix fixture, format string, args ...any) {
		r := idRow{name: name, fix: fix}
		copy(r.v[:], strings.Fields(fmt.Sprintf(format, args...)))
		rows = append(rows, r)
	}
	add("SearchDeterministicAcrossRuns", fixture{7, 150, 9, 0.12, 12345}, "serial - 1 cached 1 0 F84 uniform none given")
	for m, model := range axes[axModel] {
		for d, data := range axes[axData] {
			taxa := 8 + (2*(4*m+d))%5
			add(fmt.Sprintf("TCPRunMatchesSerialForAnyConfig-%s-%s-%dtaxa", model, data, taxa),
				fixture{taxa, 150, 33, 0.12, 7}, "tcp2 - 1 cached 1 0 %s %s none given", model, data)
		}
	}
	for k := 0; k <= 5; k++ {
		add(fmt.Sprint("ResumeMatchesUninterrupted-checkpoint=", k), fixture{8, 150, 27, 0.12, 12345}, "serial - 1 cached 1 0 F84 uniform %d given", k)
	}
	add("InferParallelMatchesSerial", fixture{7, 200, 13, 0.12, 7}, "local3 - 1 cached 2 0 F84 uniform none given")
	return rows
}

// options simulates the row's data, its columns moved by one fixed
// permutation with their weights and rates when permuted is set, and
// returns it with the row's Options but for the transport.
func (r idRow) options(permuted bool) (*seq.Alignment, Options, error) {
	f := r.fix
	ds, err := simulate.New(simulate.Options{Taxa: f.taxa, Sites: f.sites, Seed: f.sim, MeanBranchLen: f.branch})
	if err != nil {
		return nil, Options{}, err
	}
	spec := modelSpecs[r.v[axModel]]
	spec.Seed, spec.Jumbles, spec.Engine = f.seed, num(r.v[axJumbles]), r.v[axEngine]
	opt := Options{Spec: spec, Threads: num(r.v[axThreads])}
	a := &seq.Alignment{Names: ds.Alignment.Names, Data: make([][]seq.Code, f.taxa)}
	for i, p := range rand.New(rand.NewSource(f.sim)).Perm(f.sites) {
		if !permuted {
			p = i
		}
		for s, row := range ds.Alignment.Data {
			a.Data[s] = append(a.Data[s], row[p])
		}
		if strings.Contains(r.v[axData], "weights") {
			opt.Weights = append(opt.Weights, float64(p%3)) // zero-weight columns are dropped
		}
		if strings.Contains(r.v[axData], "rates") {
			opt.SiteRates = append(opt.SiteRates, 0.25+float64(p%4))
		}
	}
	return a, opt, nil
}

// idOracle is a serial, 1-thread run and its jumbles' checkpoints.
type idOracle struct {
	inf *Inference
	cps [][]mlsearch.Checkpoint
}

// TestIdentityMatrix: the paper's master/foreman/worker split is a pure
// distribution of work (§2.2). Whatever process, thread count or
// transport computes a tree, wherever a run restarts and in whatever
// order the sites come, every row, run through Infer, returns its
// oracle's Newick string, lnL bits, seed and task count, jumble by
// jumble; the oracle is a serial, 1-thread run of the same data, model,
// engine and jumbles. The rows are the configurations of the enumerated
// tests the matrix replaced plus a greedy all-pairs completion over the
// axis table, so no allowed pair of values is left out. In a threaded
// Local or TCP row every worker that evaluated did so on its shard pool.
func TestIdentityMatrix(t *testing.T) {
	rows := keptRows()
	rows = append(rows, pairwiseRows(rows)...)
	held := map[idPair]bool{}
	for _, r := range rows {
		hold(held, r.v)
	}
	for _, p := range openPairs(held) {
		t.Errorf("no row holds %q on axis %d with %q on axis %d", p.va, p.a, p.vb, p.b)
	}
	var mu sync.Mutex
	oracles := map[string]func() (idOracle, error){}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			t.Logf("%q on %+v", r.v, r.fix)
			mu.Lock()
			key := fmt.Sprint(r.fix, r.v[axEngine], r.v[axJumbles], r.v[axModel], r.v[axData])
			if oracles[key] == nil {
				oracles[key] = sync.OnceValues(func() (o idOracle, err error) {
					a, opt, err := r.options(false)
					if err != nil {
						return o, err
					}
					opt.Threads = 1
					o.cps = make([][]mlsearch.Checkpoint, opt.Jumbles)
					opt.Run.OnCheckpoint = func(j int, cp mlsearch.Checkpoint) { o.cps[j] = append(o.cps[j], cp) }
					o.inf, err = Infer(a, opt)
					return o, err
				})
			}
			oracle := oracles[key]
			mu.Unlock()
			want, err := oracle()
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if n := want.inf.Patterns.NumPatterns(); num(r.v[axThreads]) > 1 && n < likelihood.MinPoolPad {
				t.Fatalf("%d patterns, under the shard pool's %d", n, likelihood.MinPoolPad)
			}

			a, opt, err := r.options(r.v[axSites] == "permuted")
			if err != nil {
				t.Fatal(err)
			}
			if restart := r.v[axRestart]; restart != "none" {
				m := mlsearch.NewManifest(opt.Jumbles)
				for _, cps := range want.cps {
					// The last checkpoint is the done one; "final" is the
					// one before it, with only the final pass left.
					k := len(cps) - 2
					if restart != "final" {
						k = min(num(restart), len(cps)-1)
					}
					m.Set(cps[k])
				}
				path := filepath.Join(t.TempDir(), "manifest")
				if err = mlsearch.SaveManifest(path, m); err == nil {
					opt.Run.ResumeManifest, err = mlsearch.LoadManifest(path)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			kind := strings.TrimRight(r.v[axTransport], "0123456789")
			workers := make([]*mlsearch.WorkerObserver, max(num(r.v[axTransport][len(kind):]), 0))
			hooks := map[int]mlsearch.WorkerHooks{}
			for w := range workers {
				workers[w] = mlsearch.NewWorkerObserver(nil)
				hooks[w+2] = mlsearch.WorkerHooks{Threads: opt.Threads, Obs: workers[w]} // workers are ranks 2…
			}
			opt.Run.Workers, opt.Run.MaxConcurrentJumbles = len(workers), num(r.v[axConc])
			opt.Run.Foreman.Pipeline = max(num(r.v[axPipeline]), 0)
			var wg sync.WaitGroup
			errs := make([]error, len(workers))
			switch kind {
			case "local":
				opt.Run.Transport, opt.Run.WorkerHooks = mlsearch.Local, hooks
			case "tcp":
				opt.Run.Transport, opt.Run.Addr = mlsearch.TCP, "127.0.0.1:0"
				opt.Run.OnListen = func(addr net.Addr) {
					for w := range workers {
						wg.Add(1)
						go func() {
							errs[w] = mlsearch.ServeElastic(addr.String(), hooks[w+2], mlsearch.ReconnectPolicy{Disabled: true})
							wg.Done()
						}()
					}
				}
			}
			got, err := Infer(a, opt)
			wg.Wait()
			if err = errors.Join(append(errs, err)...); err != nil {
				t.Fatal(err)
			}

			if len(got.Jumbles) != len(want.inf.Jumbles) {
				t.Fatalf("%d jumbles, the oracle ran %d", len(got.Jumbles), len(want.inf.Jumbles))
			}
			for j, w := range want.inf.Jumbles {
				g := got.Jumbles[j]
				if g.Newick != w.Newick || math.Float64bits(g.LnL) != math.Float64bits(w.LnL) || g.Seed != w.Seed {
					t.Errorf("jumble %d: seed %d, lnL %.17g, tree %s\nthe oracle's: seed %d, lnL %.17g, tree %s",
						j, g.Seed, g.LnL, g.Newick, w.Seed, w.LnL, w.Newick)
				}
				// A checkpoint carries the tasks before it, so a resumed
				// run counts what an uninterrupted one does.
				if g.Search.TotalTasks != w.Search.TotalTasks {
					t.Errorf("jumble %d: %d tasks, the oracle ran %d", j, g.Search.TotalTasks, w.Search.TotalTasks)
				}
			}
			// A late restart can leave rounds smaller than local7's fleet,
			// so a worker may evaluate nothing; one that did used its pool.
			for w, o := range workers {
				if snap := o.Snapshot(); num(r.v[axThreads]) > 1 && snap.Tasks > 0 && snap.ShardDisp == 0 {
					t.Errorf("worker %d ran %d tasks on %d threads without a shard dispatch", w, snap.Tasks, snap.Threads)
				}
			}
		})
	}
}
