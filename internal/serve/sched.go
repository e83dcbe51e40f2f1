package serve

import (
	"fmt"
	"sort"
	"time"
)

// Weighted-fair tenant scheduler with admission control. Each tenant
// owns a priority-ordered FIFO; across tenants the scheduler runs
// stride scheduling: a tenant's pass advances by 1/weight per job it
// gets to run, and the next job always comes from the tenant with the
// minimum pass. A weight-3 tenant therefore drains three jobs for every
// one a weight-1 tenant drains, but no backlog — however deep — can
// starve anyone. Admission is capacity-based: a full global queue or a
// tenant over its quota is rejected at submit time (HTTP 429) rather
// than accepted and left to rot.

// AdmissionError reports a rejected submission and how long the client
// should wait before retrying.
type AdmissionError struct {
	// Reason is "queue_full" or "tenant_quota" (the metrics label).
	Reason string
	// RetryAfter is the suggested backoff, surfaced as the HTTP
	// Retry-After header.
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("serve: admission rejected: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// tenantQueue is one tenant's backlog plus its stride state. The entry
// persists after the queue drains so a chronically busy tenant cannot
// reset its pass by going briefly idle.
type tenantQueue struct {
	weight float64
	pass   float64
	jobs   []*job
}

// scheduler is not self-locking: the Server calls it under its own
// mutex, which also covers the job map the queue entries point into.
type scheduler struct {
	maxQueued    int
	maxPerTenant int
	weights      map[string]float64
	tenants      map[string]*tenantQueue
	depth        int
	// vtime tracks the global virtual time: the pass of the last tenant
	// scheduled. Newly arriving tenants start at it, so they compete
	// from "now" instead of replaying the whole past.
	vtime float64
}

func newScheduler(maxQueued, maxPerTenant int, weights map[string]float64) *scheduler {
	return &scheduler{
		maxQueued:    maxQueued,
		maxPerTenant: maxPerTenant,
		weights:      weights,
		tenants:      map[string]*tenantQueue{},
	}
}

func (s *scheduler) tenant(name string) *tenantQueue {
	tq := s.tenants[name]
	if tq == nil {
		w := s.weights[name]
		if w <= 0 {
			w = 1
		}
		tq = &tenantQueue{weight: w, pass: s.vtime}
		s.tenants[name] = tq
	}
	return tq
}

// push admits j, or rejects it with an *AdmissionError. force bypasses
// the caps — recovery uses it so a restart never drops jobs the
// previous process had already admitted.
func (s *scheduler) push(j *job, force bool) error {
	tq := s.tenant(j.rec.Tenant)
	if !force {
		if s.depth >= s.maxQueued {
			return &AdmissionError{Reason: "queue_full", RetryAfter: 5 * time.Second}
		}
		if len(tq.jobs) >= s.maxPerTenant {
			return &AdmissionError{Reason: "tenant_quota", RetryAfter: 10 * time.Second}
		}
	}
	tq.insert(j, false)
	s.depth++
	return nil
}

// insert places j in priority order: behind the queued jobs of its
// priority (FIFO), or with ahead set, in front of them.
func (tq *tenantQueue) insert(j *job, ahead bool) {
	i := sort.Search(len(tq.jobs), func(i int) bool {
		p := tq.jobs[i].rec.Priority
		return p < j.rec.Priority || ahead && p == j.rec.Priority
	})
	tq.jobs = append(tq.jobs, nil)
	copy(tq.jobs[i+1:], tq.jobs[i:])
	tq.jobs[i] = j
}

// giveBack returns a job next popped but could not start: it goes ahead
// of every queued job of its tenant at its priority, and the tenant's
// pass gets back the turn next charged it.
func (s *scheduler) giveBack(j *job) {
	tq := s.tenant(j.rec.Tenant)
	tq.insert(j, true)
	tq.pass -= 1 / tq.weight
	s.depth++
}

// next pops the job the fleet should run now, or nil when the queue is
// empty: the highest-priority job of the minimum-pass tenant.
func (s *scheduler) next() *job {
	var (
		bestName string
		best     *tenantQueue
	)
	for name, tq := range s.tenants {
		if len(tq.jobs) == 0 {
			continue
		}
		// Tie-break on name so the schedule is deterministic.
		if best == nil || tq.pass < best.pass || (tq.pass == best.pass && name < bestName) {
			bestName, best = name, tq
		}
	}
	if best == nil {
		return nil
	}
	j := best.jobs[0]
	copy(best.jobs, best.jobs[1:])
	best.jobs = best.jobs[:len(best.jobs)-1]
	s.vtime = best.pass
	best.pass += 1 / best.weight
	s.depth--
	return j
}

// remove deletes a queued job by id (cancelation), reporting whether it
// was found.
func (s *scheduler) remove(id string) bool {
	for _, tq := range s.tenants {
		for i, j := range tq.jobs {
			if j.rec.ID == id {
				copy(tq.jobs[i:], tq.jobs[i+1:])
				tq.jobs = tq.jobs[:len(tq.jobs)-1]
				s.depth--
				return true
			}
		}
	}
	return false
}

// depths reports the global and per-tenant queue depths for gauges and
// /status.
func (s *scheduler) depths() (int, map[string]int) {
	by := map[string]int{}
	for name, tq := range s.tenants {
		if len(tq.jobs) > 0 {
			by[name] = len(tq.jobs)
		}
	}
	return s.depth, by
}
