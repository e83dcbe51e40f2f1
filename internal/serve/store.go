package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/fileio"
)

// Durable job state. Every job owns a directory under <root>/jobs/<id>
// holding its record (job.json), its normalized spec (spec.json, which
// embeds the canonical alignment), and — while it runs — its restart
// manifest. All writes are atomic temp+rename, so a crash at any point
// leaves each file either in its previous or its next complete state;
// the janitor sorts out whatever mixture it finds at boot.

// JobState is a job's lifecycle position.
type JobState string

// Job states.
const (
	// StateQueued jobs are admitted and waiting for a fleet slot (also
	// the state incomplete jobs return to across a daemon restart).
	StateQueued JobState = "queued"
	// StateRunning jobs hold a pod and are dispatching rounds.
	StateRunning JobState = "running"
	// StateDone jobs finished; their result is in the result store.
	StateDone JobState = "done"
	// StateFailed jobs hit a non-recoverable error.
	StateFailed JobState = "failed"
	// StateCanceled jobs were canceled by a client.
	StateCanceled JobState = "canceled"
	// StateQuarantined jobs had corrupt on-disk state at recovery (a
	// truncated manifest, unreadable spec); they are kept visible for
	// inspection and never scheduled.
	StateQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateQuarantined:
		return true
	}
	return false
}

// Progress is the latest search position, for status polling.
type Progress struct {
	Jumble     int     `json:"jumble"`
	Kind       string  `json:"kind"`
	TaxaInTree int     `json:"taxa_in_tree"`
	NumTaxa    int     `json:"num_taxa"`
	BestLnL    float64 `json:"best_lnl"`
}

// JobRecord is a job's durable metadata (job.json) and the status
// document GET /v1/jobs/{id} serves.
type JobRecord struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	Priority  int       `json:"priority,omitempty"`
	State     JobState  `json:"state"`
	Jumbles   int       `json:"jumbles"`
	ResultKey string    `json:"result_key"`
	PodKey    string    `json:"pod_key"`
	CacheHit  bool      `json:"cache_hit,omitempty"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	Progress  *Progress `json:"progress,omitempty"`
}

// newJobID mints a fresh job id: "j-" + 12 random hex digits.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	return "j-" + hex.EncodeToString(b[:])
}

// validJobID guards path construction against ids read back from disk
// or URLs.
func validJobID(id string) bool {
	if !strings.HasPrefix(id, "j-") || len(id) != 14 {
		return false
	}
	return strings.Trim(id[2:], "0123456789abcdef") == ""
}

// JobStore is the on-disk job directory tree.
type JobStore struct {
	root string
	// write stores one document; tests swap it to inject a disk fault.
	write func(path string, v any) error
}

// NewJobStore opens (creating if needed) the store under root, and
// finishes any job deletion a previous process crashed in the middle of
// (see Delete's rename-aside protocol).
func NewJobStore(root string) (*JobStore, error) {
	jobs := filepath.Join(root, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job store: %w", err)
	}
	if ents, err := os.ReadDir(jobs); err == nil {
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), ".gc-") {
				_ = os.RemoveAll(filepath.Join(jobs, e.Name()))
			}
		}
	}
	return &JobStore{root: root, write: writeJSON}, nil
}

// Dir returns a job's directory.
func (s *JobStore) Dir(id string) string { return filepath.Join(s.root, "jobs", id) }

// ManifestPath returns a job's restart manifest path.
func (s *JobStore) ManifestPath(id string) string { return filepath.Join(s.Dir(id), "manifest") }

func (s *JobStore) recordPath(id string) string { return filepath.Join(s.Dir(id), "job.json") }
func (s *JobStore) specPath(id string) string   { return filepath.Join(s.Dir(id), "spec.json") }

// writeJSON writes v atomically to path (fileio.WriteFileAtomic).
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return fileio.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Create makes a job's directory and writes its spec and first record.
// A failed write removes the directory again, so no half-made job is
// left for the next boot to quarantine; the write's error is the one
// returned.
func (s *JobStore) Create(rec *JobRecord, spec *JobSpec) error {
	if !validJobID(rec.ID) {
		return fmt.Errorf("serve: bad job id %q", rec.ID)
	}
	if err := os.MkdirAll(s.Dir(rec.ID), 0o755); err != nil {
		return err
	}
	err := s.write(s.specPath(rec.ID), spec)
	if err == nil {
		err = s.SaveRecord(rec)
	}
	if err != nil {
		_ = os.RemoveAll(s.Dir(rec.ID))
	}
	return err
}

// SaveRecord atomically rewrites a job's record.
func (s *JobStore) SaveRecord(rec *JobRecord) error {
	if !validJobID(rec.ID) {
		return fmt.Errorf("serve: bad job id %q", rec.ID)
	}
	return s.write(s.recordPath(rec.ID), rec)
}

// LoadRecord reads a job's record back.
func (s *JobStore) LoadRecord(id string) (*JobRecord, error) {
	if !validJobID(id) {
		return nil, fmt.Errorf("serve: bad job id %q", id)
	}
	data, err := os.ReadFile(s.recordPath(id))
	if err != nil {
		return nil, err
	}
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("serve: job %s record: %w", id, err)
	}
	if rec.ID != id {
		return nil, fmt.Errorf("serve: job %s record claims id %q", id, rec.ID)
	}
	return &rec, nil
}

// LoadSpec reads a job's normalized spec back.
func (s *JobStore) LoadSpec(id string) (*JobSpec, error) {
	if !validJobID(id) {
		return nil, fmt.Errorf("serve: bad job id %q", id)
	}
	data, err := os.ReadFile(s.specPath(id))
	if err != nil {
		return nil, err
	}
	var sp JobSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("serve: job %s spec: %w", id, err)
	}
	return &sp, nil
}

// Delete removes a job's directory. The directory is renamed aside
// first — the rename is atomic, so a crash mid-delete leaves a
// `.gc-`-prefixed remnant the janitor's List skips (it is not a valid
// job id) instead of a half-deleted job directory it would quarantine.
func (s *JobStore) Delete(id string) error {
	if !validJobID(id) {
		return fmt.Errorf("serve: bad job id %q", id)
	}
	dir := s.Dir(id)
	tomb := filepath.Join(s.root, "jobs", ".gc-"+id)
	if err := os.Rename(dir, tomb); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	return os.RemoveAll(tomb)
}

// List returns every job id on disk, sorted, skipping entries that are
// not job directories (the janitor decides what to do with their
// contents).
func (s *JobStore) List() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && validJobID(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}
