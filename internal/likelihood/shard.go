package likelihood

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Multi-core kernels: the pattern dimension of every inner loop —
// pruning combines, rescaling, the root log-likelihood sum, and the
// Newton fold and first/second-derivative sums — is data-parallel, so
// the engine cuts the permuted pattern range into fixed shards and runs
// each kernel shard-by-shard, on the caller or, on an engine of at least
// MinPoolPad padded patterns with threads > 1, split into static parts
// across the caller and a persistent per-engine goroutine pool. A
// dispatch there costs one generation store, a CAS per part and a wait
// for the parts workers took (see shardPool); the floor keeps it off
// kernels too short to pay even that.
//
// Determinism contract: the shard layout is a pure function of the data
// (pattern count and rate-class blocks), never of the thread count, and
// reductions accumulate one partial per shard which the caller sums in
// shard index order. Threads therefore only changes which goroutine runs
// a shard, not a single floating-point operation or its order, so
// Threads: N is bit-identical to Threads: 1 for every kernel. Shard cut
// points are chosen on the *real* pattern axis — the same `s*npat/n`
// boundaries as the pre-SoA engine — so the padded layout changes where
// patterns live in memory but not how reductions group, keeping float64
// results bit-identical across the layout change too.
//
// Every segment owns whole 4-pattern groups: it starts at a multiple of
// 4 on the padded axis (a block's first segment at a multiple of
// clvBlock) and holds ⌈n/4⌉·4 entries, the ones past its n real patterns
// zero. The vector kernels run over the rounded length, so no scalar tail
// runs; a padding entry is a zero CLV of weight 0 and scale 0, whose
// every term is an exact identity of the sums it joins (DESIGN §5).

const (
	// minShardPatterns is the smallest pattern range worth a shard; tiny
	// data sets stay single-sharded and pay no reduction restructuring.
	minShardPatterns = 64
	// maxShards bounds the layout (and the per-shard partial arrays).
	maxShards = 16
	// MinPoolPad is the thread pool's break-even: an engine with fewer
	// padded patterns runs its kernels on the caller at any thread
	// count. On 8 taxa, two threads lost to one at 1 000 patterns and
	// below, tied at 1 500 and won from 2 000 up (EXPERIMENTS.md "a
	// dispatch that costs less than the shard"): below it a dispatch
	// costs more than the half kernel it saves.
	MinPoolPad = 2000
)

// shardSeg is a run of patterns within one rate-class block, so kernels
// still hoist the transition-matrix lookup out of the pattern loop. lo/hi
// index the real (permuted) pattern axis; plo is where the run starts on
// the padded axis the SoA lanes are laid out on, and n4 the whole groups
// it owns there.
type shardSeg struct {
	ci     int // rate class index
	lo, hi int // permuted pattern index range [lo, hi)
	plo    int // padded start index of this run, a multiple of 4
	n4     int // hi-lo rounded up to a multiple of 4
}

// shard is one contiguous pattern range, pre-cut into class segments.
type shard struct {
	segs []shardSeg
}

// buildShards cuts [0, npat) into near-equal contiguous ranges aligned
// with the class blocks: a shard boundary inside a block splits it into
// segments that each stay within one class. It then lays the segments
// out on the padded axis in pattern order, each on whole 4-pattern
// groups and each block's first on a clvBlock boundary, and returns the
// padded length.
func buildShards(blocks []classBlock, npat int) ([]shard, int) {
	n := npat / minShardPatterns
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	shards := make([]shard, n)
	pad := 0
	for _, blk := range blocks {
		pad = roundUp(pad, clvBlock)
		for s := 0; s < n; s++ {
			lo, hi := max(s*npat/n, blk.lo), min((s+1)*npat/n, blk.hi)
			if lo < hi {
				seg := shardSeg{ci: blk.ci, lo: lo, hi: hi, plo: pad, n4: roundUp(hi-lo, 4)}
				shards[s].segs = append(shards[s].segs, seg)
				pad += seg.n4
			}
		}
	}
	return shards, roundUp(pad, clvBlock)
}

// roundUp rounds n up to a multiple of m.
func roundUp(n, m int) int { return (n + m - 1) / m * m }

// Kernel opcodes for the engine-held dispatch arguments. Keeping the
// arguments in a struct owned by the engine (rather than a closure per
// call) is what makes threaded dispatch allocation-free.
const (
	kCombine = iota
	kCombine2
	kEdgeLnL
	kFoldGrad
	kSpecEval
	kSiteLnL
)

// kernArgs carries one kernel invocation's inputs. Written by the
// dispatching caller before it publishes the dispatch, read by whoever
// runs a part. sync/atomic operations are sequentially consistent, so the
// pub store orders these writes (and every other engine write since the
// last dispatch) before any worker's claim, and a worker's done add
// orders its shard partials before the caller reads them. A claim on
// generation g only succeeds while dispatch g runs, since the caller
// takes or waits for every part before it returns, so no late worker
// reads a stale kernArgs.
type kernArgs struct {
	op       int
	first    bool // kCombine: assign rather than multiply
	resc     bool // kCombine: rescale (the node's last combine)
	dst, src clvRef
	src2     clvRef
	a, b     clvRef
	out      []float64
}

// shardPool runs kernel shards on persistent goroutines plus the calling
// goroutine, in k = min(threads, shards) static parts: part i is shards
// [i·n/k, (i+1)·n/k), the caller runs part 0 and worker i part i+1. A
// dispatch bumps one generation word; each part is claimed by a CAS of
// its worker's taken word from the previous generation, by the worker or
// by the caller, which after its own part takes every part still
// unclaimed. The caller then waits only for the parts workers claimed, so
// a late, parked or descheduled worker never holds a dispatch up. A
// worker polls for the next generation for a bounded time, yielding as it
// polls, and then parks on its wake channel; dispatch wakes only parked
// workers, and costs no allocation either way.
type shardPool struct {
	e     *CachedEngine
	parts []int // part i is shards [parts[i], parts[i+1])
	ws    []poolWorker
	quit  chan struct{}
	exits sync.WaitGroup // one per worker goroutine

	_    [cacheLine]byte
	pub  atomic.Uint64 // generation of the latest dispatch; only the caller stores it
	_    [cacheLine - 8]byte
	done atomic.Int64 // worker-claimed parts finished this dispatch
	_    [cacheLine - 8]byte
}

// poolWorker is one worker's claim word and parking state, alone on its
// cache line so that claims on different parts do not contend.
type poolWorker struct {
	taken  atomic.Uint64 // last generation whose part anyone took
	parked atomic.Bool
	wake   chan struct{}
	_      [cacheLine - 24]byte
}

const (
	cacheLine = 64
	// spinPolls bounds how long an idle worker polls for the next
	// dispatch before it parks (about 50 µs on a 2-CPU amd64 host, most
	// of it in the yields), and yieldEvery how often a poll loop, the
	// worker's or the caller's, yields (see yield), so an oversubscribed
	// process never spins away a scheduler quantum. A spin eight times
	// as long, yielding only the P, won nothing alone and cost two
	// concurrent two-thread searches on two CPUs 15–45 % (EXPERIMENTS.md).
	spinPolls  = 1 << 12
	yieldEvery = 64
)

func newShardPool(e *CachedEngine, k int) *shardPool {
	p := &shardPool{e: e, quit: make(chan struct{}), ws: make([]poolWorker, k-1)}
	n := len(e.shards)
	for i := 0; i <= k; i++ {
		p.parts = append(p.parts, i*n/k)
	}
	p.exits.Add(len(p.ws))
	for i := range p.ws {
		p.ws[i].wake = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

// worker claims and runs part i+1 of every dispatch it sees in time.
func (p *shardPool) worker(i int) {
	defer p.exits.Done()
	w := &p.ws[i]
	seen := uint64(0)
	for {
		for n := 0; p.pub.Load() == seen; n++ {
			if n%yieldEvery == yieldEvery-1 {
				select {
				case <-p.quit:
					return
				default:
				}
				yield()
			}
			if n < spinPolls {
				continue
			}
			// Park. The dispatcher stores pub before it reads parked and
			// the worker stores parked before it re-reads pub, so one of
			// them sees the other: no wake-up is lost.
			w.parked.Store(true)
			if p.pub.Load() == seen {
				select {
				case <-w.wake:
				case <-p.quit:
					return
				}
			}
			w.parked.Store(false)
			n = 0
		}
		seen = p.pub.Load()
		if w.taken.CompareAndSwap(seen-1, seen) {
			p.run(i + 1)
			p.done.Add(1)
		}
	}
}

// run runs part i's shards.
func (p *shardPool) run(i int) {
	for s := p.parts[i]; s < p.parts[i+1]; s++ {
		p.e.shardKernel(s)
	}
}

// dispatch runs the engine's current kernel over all shards, caller
// participating, and returns when every shard completed.
func (p *shardPool) dispatch() {
	g := p.pub.Load() + 1
	p.done.Store(0)
	p.pub.Store(g)
	for i := range p.ws {
		if w := &p.ws[i]; w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
	p.run(0)
	claimed := int64(0)
	for i := range p.ws {
		if p.ws[i].taken.CompareAndSwap(g-1, g) {
			p.run(i + 1)
		} else {
			claimed++
		}
	}
	for n := 0; p.done.Load() < claimed; n++ {
		if n%yieldEvery == yieldEvery-1 {
			yield()
		}
	}
}

// yield gives up the P, so that goroutines queued behind a poll loop run
// even under GOMAXPROCS 1, and then the CPU, so that an oversubscribed
// host runs other threads, this process's or another's, instead of the
// poll.
func yield() {
	runtime.Gosched()
	osYield()
}

// SetThreads sizes the engine's kernel pool to n threads (the caller
// plus up to n-1 persistent goroutines); n <= 1 restores single-threaded
// operation. An engine with fewer than two shards, or fewer than
// MinPoolPad padded patterns, gets no pool: it runs every kernel on the
// caller whatever n is. It must not be called while an evaluation is in
// progress. Results are bit-identical for every n.
func (e *CachedEngine) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	if n == e.threads {
		return
	}
	e.Close()
	e.threads = n
	if k := min(n, len(e.shards)); k > 1 && e.npad >= MinPoolPad {
		e.pool = newShardPool(e, k)
	}
}

// Threads reports the engine's configured kernel thread count.
func (e *CachedEngine) Threads() int { return e.threads }

// Close stops the engine's kernel pool goroutines (spinning workers see
// quit at their next yield, parked ones at once), returns once they have
// exited, and restores single-threaded operation. It is a no-op for
// engines without a pool; threaded engines should be closed when no
// longer needed.
func (e *CachedEngine) Close() {
	if e.pool != nil {
		close(e.pool.quit)
		e.pool.exits.Wait()
		e.pool = nil
	}
	e.threads = 1
}

// runShards executes the kernel described by e.kern over every shard.
func (e *CachedEngine) runShards() {
	if e.pool == nil {
		for s := range e.shards {
			e.shardKernel(s)
		}
		return
	}
	e.stats.ShardDispatches++
	e.pool.dispatch()
}

// shardKernel runs the current kernel over shard s. It is the only code
// executed by pool goroutines; everything it touches is either read-only
// during a dispatch (transition matrices, tips, weights) or partitioned
// by shard (CLV ranges, fold lanes, per-shard partials). Each opcode
// dispatches to the segment kernels in kernels.go; reductions
// accumulate with one accumulator threaded through the whole shard, so
// the summation grouping matches the pre-SoA engine exactly. The vector
// kernels (bc2 != nil) run over each segment's whole groups, seg.n4; the
// scalar ones, the multifurcation combines and the site log-likelihoods
// over its real patterns.
func (e *CachedEngine) shardKernel(s int) {
	k := &e.kern
	segs := e.shards[s].segs
	freqs := (*[4]float64)(&e.freqs)
	switch k.op {
	case kCombine:
		for _, seg := range segs {
			segCombineInto(k.dst.f64, k.src.f64, &e.pmat[seg.ci], k.dst.sc, k.src.sc,
				e.npad, seg.plo, seg.hi-seg.lo, k.first, k.resc)
		}
	case kCombine2:
		for _, seg := range segs {
			if e.bc2 != nil {
				combine2F64(k.dst.f64, k.src.f64, k.src2.f64, &e.pmat[seg.ci], &e.pmatB[seg.ci],
					&e.bc2[seg.ci], k.dst.sc, k.src.sc, k.src2.sc, e.npad, seg.plo, seg.n4)
			} else {
				segCombine2(k.dst.f64, k.src.f64, k.src2.f64, &e.pmat[seg.ci], &e.pmatB[seg.ci],
					k.dst.sc, k.src.sc, k.src2.sc, e.npad, seg.plo, seg.hi-seg.lo)
			}
		}
	case kEdgeLnL:
		total := 0.0
		for _, seg := range segs {
			if e.bc2 != nil {
				total = edgeLnLF64(k.a.f64, k.b.f64, k.a.sc, k.b.sc, e.weights,
					&e.pmat[seg.ci], freqs, &e.lnlT[seg.ci], e.npad, seg.plo, seg.n4, total)
				continue
			}
			total = segEdgeLnL(k.a.f64, k.b.f64, k.a.sc, k.b.sc, e.weights,
				&e.pmat[seg.ci], freqs, e.npad, seg.plo, seg.hi-seg.lo, total)
		}
		e.shLnL[s] = total
	case kFoldGrad, kSpecEval:
		var acc gradAcc
		nk := len(e.foldM)
		for _, seg := range segs {
			n := seg.hi - seg.lo
			c := &e.specC[seg.ci]
			// Later iterates of a solve (kSpecEval) find the lanes folded.
			if e.bc2 != nil {
				if k.op == kFoldGrad {
					foldF64(e.spec, k.a.f64, k.b.f64, e.foldM, freqs, &e.foldB, e.npad, seg.plo, seg.n4)
				}
				acc = specEvalF64(e.spec, e.weights, c, nk, e.npad, seg.plo, seg.n4, acc)
				continue
			}
			if k.op == kFoldGrad {
				segFold(e.spec, k.a.f64, k.b.f64, e.foldM, freqs, e.npad, seg.plo, n)
			}
			acc = segSpecEval(e.spec, e.weights, c, nk, e.npad, seg.plo, n, acc)
		}
		e.shD1[s], e.shD2[s] = acc.d1, acc.d2
	case kSiteLnL:
		for _, seg := range segs {
			n := seg.hi - seg.lo
			segSiteLnL(k.a.f64, k.b.f64, k.a.sc, k.b.sc, e.origOfPad, k.out,
				&e.pmat[seg.ci], freqs, e.npad, seg.plo, n)
		}
	}
}
