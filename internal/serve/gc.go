package serve

import (
	"sort"
	"time"
)

// Retention garbage collection. Without it the daemon grows without
// bound on three axes: the in-memory job map, the on-disk job
// directories, and the content-addressed result store. The GC runs on
// the same periodic tick as the pod reaper and enforces three knobs:
//
//   - JobTTL: a terminal job (done, failed, canceled, quarantined) is
//     evicted from the in-memory map and its job directory deleted once
//     it has been terminal for the TTL. The job id stops resolving
//     (404), but a done job's *result* stays fetchable by resubmitting
//     the spec — that is a CAS cache hit, governed separately below.
//   - ResultTTL: a stored result older than the TTL is deleted from the
//     CAS. Age is the file mtime, which Get refreshes on every cache
//     hit, so "old" means "unused", not "computed long ago".
//   - MaxResultsBytes: when the CAS exceeds the byte budget, the
//     least-recently-used results are deleted until it fits.
//
// Eviction is restart-safe by construction: deleting the job directory
// is the same ground truth the janitor reads at boot, so a GC'd job
// simply is not there to resurrect, and a crash mid-delete leaves a
// renamed-aside directory the janitor ignores.

// runGC enforces the retention knobs once; the reap loop calls it every
// tick, and tests call it directly with a synthetic clock.
func (s *Server) runGC(now time.Time) {
	s.met.gcRuns.Inc()
	s.gcJobs(now)
	s.gcResults(now)
}

// gcJobs evicts jobs that have been terminal for longer than JobTTL.
func (s *Server) gcJobs(now time.Time) {
	if s.opt.JobTTL <= 0 {
		return
	}
	s.mu.Lock()
	var victims []*job
	for id, j := range s.jobs {
		rec := j.snapshot()
		if !rec.State.Terminal() {
			continue
		}
		ref := rec.Finished
		if ref.IsZero() {
			ref = rec.Submitted
		}
		if now.Sub(ref) >= s.opt.JobTTL {
			victims = append(victims, j)
			delete(s.jobs, id)
		}
	}
	s.mu.Unlock()
	for _, j := range victims {
		rec := j.snapshot()
		// Terminal jobs closed their log at finalize; this is a no-op
		// safety net for quarantined records adopted closed.
		j.events.close()
		if err := s.store.Delete(rec.ID); err != nil {
			s.opt.Logf("gc: job %s: %v", rec.ID, err)
			continue
		}
		s.met.gcJobs.Inc()
		s.opt.Logf("gc: evicted job %s (%s %s ago)", rec.ID, rec.State, now.Sub(rec.Finished).Round(time.Second))
	}
}

// gcResults enforces ResultTTL and the MaxResultsBytes LRU budget over
// the content-addressed store, and refreshes the size gauge.
func (s *Server) gcResults(now time.Time) {
	ttl, budget := s.opt.ResultTTL, s.opt.MaxResultsBytes
	ents, err := s.results.Entries()
	if err != nil {
		s.opt.Logf("gc: result store: %v", err)
		return
	}
	var total int64
	live := ents[:0]
	for _, e := range ents {
		if ttl > 0 && now.Sub(e.ModTime) >= ttl {
			if err := s.results.Delete(e.Key); err != nil {
				s.opt.Logf("gc: result %s: %v", e.Key, err)
				continue
			}
			s.met.gcResults.With("ttl").Inc()
			s.opt.Logf("gc: expired result %.12s (unused %s)", e.Key, now.Sub(e.ModTime).Round(time.Second))
			continue
		}
		live = append(live, e)
		total += e.Size
	}
	if budget > 0 && total > budget {
		// Trim least-recently-used first; mtime is the use clock.
		sort.Slice(live, func(i, k int) bool { return live[i].ModTime.Before(live[k].ModTime) })
		for _, e := range live {
			if total <= budget {
				break
			}
			if err := s.results.Delete(e.Key); err != nil {
				s.opt.Logf("gc: result %s: %v", e.Key, err)
				continue
			}
			total -= e.Size
			s.met.gcResults.With("bytes").Inc()
			s.opt.Logf("gc: trimmed result %.12s (store over %d-byte budget)", e.Key, budget)
		}
	}
	s.met.gcResultBytes.Set(float64(total))
}
