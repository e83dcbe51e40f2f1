package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/mlsearch"
	"repro/internal/obs"
)

// The daemon's elastic worker fleet. Worker engines are dataset-bound —
// a foreman and its workers serve exactly one alignment + model — so
// the fleet is organized as pods: each pod is a persistent warm
// mlsearch.LocalWorld (foreman, K workers, a job lane per search) keyed
// by the dataset hash. Jobs over the same dataset share a pod and its
// warm CLV caches; a pod whose last job finished idles until the TTL
// reaps it.
// The pod count is bounded, so the fleet's worker budget is
// MaxPods × Workers regardless of how many distinct datasets clients
// submit.

// ErrFleetSaturated reports that every pod slot is held by a running
// job's dataset; the caller backs off and retries.
var ErrFleetSaturated = errors.New("serve: fleet saturated (all pods busy with other datasets)")

// FleetOptions size the fleet.
type FleetOptions struct {
	// Workers is the worker goroutine count per pod (default 2).
	Workers int
	// MaxPods bounds how many warm pods exist at once (default 2).
	MaxPods int
	// IdleTTL is how long an unreferenced pod stays warm before the
	// reaper shuts it down (default 5m).
	IdleTTL time.Duration
	// Threads is the likelihood kernel thread count per worker engine
	// (default 1; results are bit-identical at any count).
	Threads int
	// TaskTimeout re-dispatches a task whose worker has not answered
	// (default 1m; the foreman's inline evaluation is the last rung, so
	// a pod always makes progress).
	TaskTimeout time.Duration
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.MaxPods < 1 {
		o.MaxPods = 2
	}
	if o.IdleTTL <= 0 {
		o.IdleTTL = 5 * time.Minute
	}
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.TaskTimeout == 0 {
		o.TaskTimeout = time.Minute
	}
	return o
}

// pod is one warm dataset-bound world: a Local world that has not been
// shut down yet.
type pod struct {
	key   string
	world *mlsearch.LocalWorld

	refs int
	idle time.Time
}

// Fleet owns the pods.
type Fleet struct {
	opt  FleetOptions
	reg  *obs.Registry
	logf func(format string, args ...any)

	mu     sync.Mutex
	pods   map[string]*pod
	closed bool

	gPods    *obs.Gauge
	mCreated *obs.Counter
	mReaped  *obs.Counter
}

// NewFleet builds an empty fleet publishing pod metrics into reg.
func NewFleet(opt FleetOptions, reg *obs.Registry) *Fleet {
	return &Fleet{
		opt:      opt.withDefaults(),
		reg:      reg,
		logf:     func(string, ...any) {},
		pods:     map[string]*pod{},
		gPods:    reg.Gauge("fdml_serve_pods", "Warm worker pods."),
		mCreated: reg.Counter("fdml_serve_pods_created_total", "Worker pods created."),
		mReaped:  reg.Counter("fdml_serve_pods_reaped_total", "Worker pods shut down after idling."),
	}
}

// Acquire returns a pod for the dataset key, creating one if needed.
// Every Acquire must be paired with a Release. When all pod slots are
// held by other datasets' running jobs it returns ErrFleetSaturated.
func (f *Fleet) Acquire(key string, cfg mlsearch.Config) (*pod, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("serve: fleet closed")
	}
	if p := f.pods[key]; p != nil {
		p.refs++
		return p, nil
	}
	if len(f.pods) >= f.opt.MaxPods {
		// Evict the longest-idle unreferenced pod to make room.
		var victim *pod
		for _, p := range f.pods {
			if p.refs == 0 && (victim == nil || p.idle.Before(victim.idle)) {
				victim = p
			}
		}
		if victim == nil {
			return nil, ErrFleetSaturated
		}
		delete(f.pods, victim.key)
		f.gPods.Set(float64(len(f.pods)))
		f.mReaped.Inc()
		// Shut the victim down outside the lock; no job is running on
		// it (refs was 0).
		go f.retire(victim)
	}
	p, err := f.newPod(key, cfg)
	if err != nil {
		return nil, err
	}
	p.refs = 1
	f.pods[key] = p
	f.gPods.Set(float64(len(f.pods)))
	f.mCreated.Inc()
	return p, nil
}

// newPod starts the warm world: the Local transport's world, kept alive
// to take a Run per job. Its workers — and its foreman, should every
// worker in the pod die — evaluate with the dataset's config at the
// fleet's thread count.
func (f *Fleet) newPod(key string, cfg mlsearch.Config) (*pod, error) {
	norm, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	norm.Threads = f.opt.Threads
	world, err := mlsearch.StartLocal(norm, mlsearch.RunOptions{
		Workers: f.opt.Workers,
		Foreman: mlsearch.ForemanOptions{TaskTimeout: f.opt.TaskTimeout},
		Obs:     mlsearch.NewRunObserver(f.reg, nil),
	})
	if err != nil {
		return nil, err
	}
	return &pod{key: key, idle: time.Now(), world: world}, nil
}

// Release returns a pod reference; an unreferenced pod starts its idle
// clock. A release without a matching Acquire is a caller bug: the
// count must never go negative — a negative count would make the pod
// look idle while a job still holds it (reapable mid-run) and then
// immortal once re-acquired — so it is clamped at zero and logged
// loudly instead of corrupting the lifecycle.
func (f *Fleet) Release(p *pod) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p.refs <= 0 {
		f.logf("BUG: fleet: double release of pod %.8s (refs %d); dropping the extra release", p.key, p.refs)
		return
	}
	p.refs--
	if p.refs == 0 {
		p.idle = time.Now()
	}
}

// Reap shuts down pods that have idled past the TTL, returning how many
// it reaped.
func (f *Fleet) Reap(now time.Time) int {
	f.mu.Lock()
	var victims []*pod
	for key, p := range f.pods {
		if p.refs == 0 && now.Sub(p.idle) >= f.opt.IdleTTL {
			victims = append(victims, p)
			delete(f.pods, key)
		}
	}
	f.gPods.Set(float64(len(f.pods)))
	f.mu.Unlock()
	for _, p := range victims {
		f.retire(p)
		f.mReaped.Inc()
	}
	return len(victims)
}

// retire shuts down a pod the fleet no longer tracks; with no caller to
// return its failure to, the failure is logged.
func (f *Fleet) retire(p *pod) {
	if err := f.shutdownPod(p); err != nil {
		f.logf("fleet: %v", err)
	}
}

// shutdownPod tears one world down, returning the first failure of the
// pod's foreman or workers.
func (f *Fleet) shutdownPod(p *pod) error {
	err := p.world.Shutdown()
	if err != nil {
		err = fmt.Errorf("pod %.8s %w", p.key, err)
	}
	return err
}

// Pods reports the warm pod count.
func (f *Fleet) Pods() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pods)
}

// Close shuts every pod down. Callers must have stopped all jobs first
// (no live dispatchers).
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	pods := make([]*pod, 0, len(f.pods))
	for _, p := range f.pods {
		pods = append(pods, p)
	}
	f.pods = map[string]*pod{}
	f.gPods.Set(0)
	f.mu.Unlock()

	var first error
	for _, p := range pods {
		if err := f.shutdownPod(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}
