package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Content-addressed result store. A finished job's outcome is written
// under its ResultKey; a later submission with the same key returns the
// stored document without dispatching a single task. Keys cover
// everything that determines the trees and exclude deployment knobs
// (see preparedSpec), so the store doubles as a cross-restart memo: it
// survives daemon restarts alongside the job store.

// JumbleOutcome is one random ordering's result inside a JobResult.
type JumbleOutcome struct {
	Jumble int     `json:"jumble"`
	Seed   int64   `json:"seed"`
	LnL    float64 `json:"lnl"`
	Newick string  `json:"newick"`
}

// JobResult is the stored outcome of a completed job.
type JobResult struct {
	// Key is the content hash the result is stored under.
	Key string `json:"key"`
	// BestJumble indexes the highest-likelihood ordering.
	BestJumble int `json:"best_jumble"`
	// BestLnL is its log-likelihood.
	BestLnL float64 `json:"best_lnl"`
	// BestNewick is its tree.
	BestNewick string `json:"best_newick"`
	// Consensus is the majority rule consensus over the jumble trees
	// ("" when only one jumble ran).
	Consensus string `json:"consensus,omitempty"`
	// Jumbles holds every ordering's result, in jumble order.
	Jumbles []JumbleOutcome `json:"jumbles"`
	// TotalTasks and TotalOps sum the dispatched work over the run.
	TotalTasks int    `json:"total_tasks"`
	TotalOps   uint64 `json:"total_ops"`
}

// ResultStore is the on-disk content-addressed store: one JSON document
// per key under dir.
type ResultStore struct {
	dir string
	// write stores one document; tests swap it to inject a disk fault.
	write func(path string, v any) error
	// logf reports a stored document that Get treats as a miss; the
	// server sets its Options.Logf.
	logf func(format string, args ...any)
}

// NewResultStore opens (creating if needed) a store rooted at dir.
func NewResultStore(dir string) (*ResultStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: result store: %w", err)
	}
	return &ResultStore{dir: dir, write: writeJSON, logf: func(string, ...any) {}}, nil
}

// path maps a key to its file, refusing anything that is not a plain
// lowercase hex digest (keys come from hashJSON, but records on disk
// are untrusted after a restart).
func (s *ResultStore) path(key string) (string, error) {
	if key == "" || strings.Trim(key, "0123456789abcdef") != "" {
		return "", fmt.Errorf("serve: bad result key %q", key)
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// Get returns the stored result for key, reporting whether one exists.
// A hit refreshes the file's mtime: the GC's LRU trim and result TTL
// both read mtime as "last used", so hot cache entries survive trims
// that evict cold ones. A document that does not parse, or whose key is
// not its file's name (a write torn by a crash), is logged and is a
// miss: the job runs again, and its Put replaces the document.
func (s *ResultStore) Get(key string) (*JobResult, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var r JobResult
	if err := json.Unmarshal(data, &r); err != nil {
		s.logf("result %s: stored document does not parse, a miss: %v", key, err)
		return nil, false, nil
	}
	if r.Key != key {
		s.logf("result %s: stored document holds key %q, a miss", key, r.Key)
		return nil, false, nil
	}
	now := time.Now()
	_ = os.Chtimes(p, now, now)
	return &r, true, nil
}

// ResultEntry describes one stored result for the garbage collector.
type ResultEntry struct {
	Key     string
	Size    int64
	ModTime time.Time
}

// Entries lists every stored result with its size and last-use time.
func (s *ResultStore) Entries() ([]ResultEntry, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []ResultEntry
	for _, e := range ents {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() {
			continue
		}
		if _, err := s.path(key); err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // deleted mid-listing
		}
		out = append(out, ResultEntry{Key: key, Size: info.Size(), ModTime: info.ModTime()})
	}
	return out, nil
}

// Delete removes a stored result; a missing key is not an error.
func (s *ResultStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Put stores a result atomically (writeJSON); writing the same key twice
// is an idempotent overwrite, which is exactly right for a deterministic
// computation.
func (s *ResultStore) Put(r *JobResult) error {
	p, err := s.path(r.Key)
	if err != nil {
		return err
	}
	return s.write(p, r)
}
