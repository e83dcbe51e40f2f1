package likelihood

import (
	"sync"
	"sync/atomic"
)

// Multi-core kernels: the pattern dimension of every inner loop —
// pruning combines, rescaling, the root log-likelihood sum, and the
// Newton fold and first/second-derivative sums — is data-parallel, so
// the engine cuts the permuted pattern range into fixed shards and runs
// each kernel shard-by-shard on a persistent per-engine goroutine pool.
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
// every term is an exact identity of the sums it joins (DESIGN §5f).

const (
	// minShardPatterns is the smallest pattern range worth a shard; tiny
	// data sets stay single-sharded and pay no reduction restructuring.
	minShardPatterns = 64
	// maxShards bounds the layout (and the per-shard partial arrays).
	maxShards = 16
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
	kCombineFirst = iota
	kCombineMul
	kCombineFirstResc
	kCombineMulResc
	kCombine2
	kEdgeLnL
	kFoldGrad
	kSpecEval
	kSiteLnL
)

// kernArgs carries one kernel invocation's inputs. Written by the
// dispatching caller before the pool wakes, read by the shard workers;
// the wake channel send and WaitGroup wait order the accesses.
type kernArgs struct {
	op       int
	dst, src clvRef
	src2     clvRef
	a, b     clvRef
	out      []float64
}

// shardPool runs kernel shards on threads-1 persistent goroutines plus
// the calling goroutine. Shards are claimed by an atomic counter, so a
// slow core never strands work pinned to it.
type shardPool struct {
	e    *CachedEngine
	wake []chan struct{}
	quit chan struct{}
	next atomic.Int64
	wg   sync.WaitGroup
}

func newShardPool(e *CachedEngine, workers int) *shardPool {
	p := &shardPool{e: e, quit: make(chan struct{})}
	p.wake = make([]chan struct{}, workers)
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(p.wake[i])
	}
	return p
}

func (p *shardPool) worker(wake chan struct{}) {
	for {
		select {
		case <-p.quit:
			return
		case <-wake:
			p.drain()
			p.wg.Done()
		}
	}
}

// drain claims and runs shards until the counter runs past the layout.
func (p *shardPool) drain() {
	n := len(p.e.shards)
	for {
		s := int(p.next.Add(1)) - 1
		if s >= n {
			return
		}
		p.e.shardKernel(s)
	}
}

// dispatch runs the engine's current kernel over all shards, caller
// participating, and returns when every shard completed.
func (p *shardPool) dispatch() {
	p.next.Store(0)
	p.wg.Add(len(p.wake))
	for _, ch := range p.wake {
		ch <- struct{}{}
	}
	p.drain()
	p.wg.Wait()
}

func (p *shardPool) stop() { close(p.quit) }

// SetThreads sizes the engine's kernel pool to n threads (the caller
// plus n-1 persistent goroutines); n <= 1 restores single-threaded
// operation. It must not be called while an evaluation is in progress.
// Results are bit-identical for every n.
func (e *CachedEngine) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	if n == e.threads {
		return
	}
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
	}
	e.threads = n
	if n > 1 {
		e.pool = newShardPool(e, n-1)
	}
}

// Threads reports the engine's configured kernel thread count.
func (e *CachedEngine) Threads() int { return e.threads }

// Close releases the engine's kernel pool goroutines. It is a no-op for
// single-threaded engines; threaded engines should be closed when no
// longer needed.
func (e *CachedEngine) Close() {
	if e.pool != nil {
		e.pool.stop()
		e.pool = nil
		e.threads = 1
	}
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
	case kCombineFirst:
		for _, seg := range segs {
			n := seg.hi - seg.lo
			segCombineFirst(k.dst.f64, k.src.f64, &e.pmat[seg.ci], e.npad, seg.plo, n)
			copy(k.dst.sc[seg.plo:seg.plo+n], k.src.sc[seg.plo:seg.plo+n])
		}
	case kCombineMul:
		for _, seg := range segs {
			n := seg.hi - seg.lo
			segCombineMul(k.dst.f64, k.src.f64, &e.pmat[seg.ci], e.npad, seg.plo, n)
			addScale(k.dst.sc, k.src.sc, seg.plo, n)
		}
	case kCombineFirstResc:
		for _, seg := range segs {
			n := seg.hi - seg.lo
			segCombineFirstResc(k.dst.f64, k.src.f64, &e.pmat[seg.ci], k.dst.sc, k.src.sc, e.npad, seg.plo, n)
		}
	case kCombineMulResc:
		for _, seg := range segs {
			n := seg.hi - seg.lo
			segCombineMulResc(k.dst.f64, k.src.f64, &e.pmat[seg.ci], k.dst.sc, k.src.sc, e.npad, seg.plo, n)
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
