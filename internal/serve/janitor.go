package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/mlsearch"
)

// Startup recovery: the janitor walks the job store and decides, per
// job, whether it is terminal (kept visible), done in all but its record
// (its result is stored), incomplete (re-queued, resuming from its
// manifest where one reads, else from the beginning), or corrupt: a
// record or spec that does not read is the job's identity lost, so the
// job is quarantined. Quarantine is deliberately job-scoped — one bad
// file must never take the daemon or its neighbors down; the damaged job
// parks in StateQuarantined with the parse error attached while every
// other job resumes normally.

// recover loads every job found under the data directory.
func (s *Server) recover() error {
	ids, err := s.store.List()
	if err != nil {
		return err
	}
	for _, id := range ids {
		rec, err := s.store.LoadRecord(id)
		if err != nil {
			s.quarantine(&JobRecord{ID: id, Tenant: "default", Submitted: time.Now()},
				fmt.Errorf("job record: %w", err))
			continue
		}
		if rec.State.Terminal() {
			s.adopt(rec, nil, nil)
			continue
		}

		// Queued or running when the previous process stopped: rebuild
		// the prepared spec and resume state, then re-queue.
		spec, err := s.store.LoadSpec(id)
		if err != nil {
			s.quarantine(rec, fmt.Errorf("job spec: %w", err))
			continue
		}
		prep, err := prepareSpec(*spec)
		if err != nil {
			s.quarantine(rec, fmt.Errorf("job spec: %w", err))
			continue
		}
		// Re-derive the content keys from the spec rather than trusting
		// the stored record: the spec is the source of truth.
		rec.ResultKey = prep.ResultKey
		rec.PodKey = prep.PodKey
		rec.Jumbles = prep.Spec.Options.Jumbles
		// A stored result outlived the job's last record write (a crash
		// between the result's write and the done record's): the job is
		// done, and its document is not computed or written again.
		if _, stored, err := s.results.Get(rec.ResultKey); err == nil && stored {
			rec.State = StateDone
			rec.Error = ""
			rec.Finished = time.Now()
			s.saveRecord(rec)
			s.adopt(rec, nil, nil)
			s.opt.Logf("job %s: result already stored, done", id)
			continue
		}
		// A missing or unreadable manifest is a fresh start: by the
		// restart contract that gives the same result.
		resume, err := mlsearch.LoadManifest(s.store.ManifestPath(id))
		rec.State = StateQueued
		rec.Error = ""
		rec.Started = time.Time{}
		s.saveRecord(rec)
		s.adopt(rec, prep, resume)
		s.met.resumed.Inc()
		switch {
		case err == nil:
			s.opt.Logf("job %s: resuming (%d of %d jumbles done)", id, resume.Finished(), resume.Jumbles)
		case errors.Is(err, fs.ErrNotExist):
			s.opt.Logf("job %s: recovered, starting fresh", id)
		default:
			s.opt.Logf("job %s: restart manifest unreadable, starting fresh: %v", id, err)
		}
	}
	return nil
}

// adopt registers a recovered job in memory, and in the scheduler when
// it still has work to do.
func (s *Server) adopt(rec *JobRecord, prep *preparedSpec, resume *mlsearch.Manifest) {
	j := newJob(*rec, prep, resume)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.rec.ID] = j
	if !rec.State.Terminal() {
		// force: these jobs were admitted by the previous process; a
		// restart must never drop them to admission control.
		_ = s.sched.push(j, true)
	}
}

// quarantine parks a job with corrupt on-disk state.
func (s *Server) quarantine(rec *JobRecord, cause error) {
	rec.State = StateQuarantined
	rec.Error = cause.Error()
	rec.Finished = time.Now()
	s.saveRecord(rec)
	s.adopt(rec, nil, nil)
	s.met.quarantined.Inc()
	s.opt.Logf("job %s: quarantined: %v", rec.ID, cause)
}
