package mlsearch

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fileio"
)

// The restart file. A single Checkpoint describes one ordering; a run
// may have several searches in flight at once, so its restart file is a
// manifest: one checkpoint block per jumble that has reported a position
// (a single-jumble run writes one block; done jumbles keep their final
// PhaseDone block, so a resumed run returns their results without
// re-running them). The file is rewritten atomically, behind the
// searches (ManifestRecorder) — a crash mid-write leaves the previous
// complete manifest in place.

// Manifest is the resumable position of a run.
type Manifest struct {
	// Jumbles is the run's total jumble count.
	Jumbles int
	// Checkpoints holds the latest checkpoint per jumble index. Jumbles
	// that have not reported yet have no entry and restart from their
	// derived seed.
	Checkpoints map[int]Checkpoint
}

// NewManifest builds an empty manifest for a run of the given size.
func NewManifest(jumbles int) *Manifest {
	return &Manifest{Jumbles: jumbles, Checkpoints: map[int]Checkpoint{}}
}

// Checkpoint returns jumble j's entry, if it has one.
func (m *Manifest) Checkpoint(j int) (Checkpoint, bool) {
	cp, ok := m.Checkpoints[j]
	return cp, ok
}

// Set records cp as its jumble's latest position.
func (m *Manifest) Set(cp Checkpoint) {
	if m.Checkpoints == nil {
		m.Checkpoints = map[int]Checkpoint{}
	}
	m.Checkpoints[cp.Jumble] = cp
}

// Finished returns how many of the manifest's jumbles are done.
func (m *Manifest) Finished() int {
	n := 0
	for j := 0; j < m.Jumbles; j++ {
		if cp, ok := m.Checkpoints[j]; ok && cp.Phase == PhaseDone {
			n++
		}
	}
	return n
}

// WriteManifest writes the human-readable manifest format:
//
//	fastdnaml-manifest v1
//	jumbles <n>
//	begin jumble <j>
//	<checkpoint key-value lines>
//	end jumble
//
// Blocks are ordered by jumble index so identical states produce
// identical files.
func WriteManifest(w io.Writer, m *Manifest) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "fastdnaml-manifest v1")
	fmt.Fprintf(bw, "jumbles %d\n", m.Jumbles)
	idx := make([]int, 0, len(m.Checkpoints))
	for j := range m.Checkpoints {
		idx = append(idx, j)
	}
	sort.Ints(idx)
	for _, j := range idx {
		cp := m.Checkpoints[j]
		if cp.Jumble != j {
			return fmt.Errorf("mlsearch: manifest entry %d holds checkpoint for jumble %d", j, cp.Jumble)
		}
		fmt.Fprintf(bw, "begin jumble %d\n", j)
		if err := writeCheckpointBody(bw, cp); err != nil {
			return err
		}
		fmt.Fprintln(bw, "end jumble")
	}
	return bw.Flush()
}

// ReadManifest parses a manifest. Every block's keys are checked
// strictly: a duplicate, missing or unknown key or a bad value is an
// error naming the key, and so is a block the file ends inside.
func ReadManifest(r io.Reader) (*Manifest, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "fastdnaml-manifest v1" {
		return nil, fmt.Errorf("mlsearch: not a fastdnaml manifest")
	}
	m := NewManifest(0)
	sawJumbles := false
	var block *checkpointParser
	blockIdx := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "jumbles "):
			if block != nil {
				return nil, fmt.Errorf("mlsearch: manifest %q inside a jumble block", line)
			}
			if sawJumbles {
				return nil, fmt.Errorf("mlsearch: duplicate manifest key %q", "jumbles")
			}
			n, err := strconv.Atoi(strings.TrimPrefix(line, "jumbles "))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("mlsearch: bad manifest jumble count %q", line)
			}
			m.Jumbles = n
			sawJumbles = true
		case strings.HasPrefix(line, "begin jumble "):
			if block != nil {
				return nil, fmt.Errorf("mlsearch: nested jumble block at %q", line)
			}
			j, err := strconv.Atoi(strings.TrimPrefix(line, "begin jumble "))
			if err != nil || j < 0 {
				return nil, fmt.Errorf("mlsearch: bad manifest block header %q", line)
			}
			if _, dup := m.Checkpoints[j]; dup {
				return nil, fmt.Errorf("mlsearch: duplicate manifest block for jumble %d", j)
			}
			block, blockIdx = newCheckpointParser(), j
		case line == "end jumble":
			if block == nil {
				return nil, fmt.Errorf("mlsearch: end jumble without begin")
			}
			cp, err := block.finish()
			if err != nil {
				return nil, err
			}
			if cp.Jumble != blockIdx {
				return nil, fmt.Errorf("mlsearch: manifest block %d holds checkpoint for jumble %d", blockIdx, cp.Jumble)
			}
			m.Checkpoints[blockIdx] = cp
			block = nil
		default:
			if block == nil {
				return nil, fmt.Errorf("mlsearch: unexpected manifest line %q", line)
			}
			if err := block.line(line); err != nil {
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if block != nil {
		return nil, fmt.Errorf("mlsearch: manifest truncated inside jumble %d block", blockIdx)
	}
	if !sawJumbles {
		return nil, fmt.Errorf("mlsearch: manifest missing required key %q", "jumbles")
	}
	for j := range m.Checkpoints {
		if j >= m.Jumbles {
			return nil, fmt.Errorf("mlsearch: manifest block for jumble %d in a %d-jumble run", j, m.Jumbles)
		}
	}
	return m, nil
}

// SaveManifest atomically rewrites path (fileio.WriteFileAtomic).
func SaveManifest(path string, m *Manifest) error {
	return fileio.WriteFileAtomic(path, func(w io.Writer) error { return WriteManifest(w, m) })
}

// LoadManifest reads a restart file (-resume, a daemon job's manifest).
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}

// ManifestRecorder folds the checkpoint stream of concurrent searches
// into one manifest file, written behind the searches: Record never
// touches the disk on the caller's goroutine. It folds the checkpoint in
// and, unless a write is already in flight, starts one background write
// of the newest state; a write that finishes while newer state waits
// writes once more. So at most one write is in flight, the newest state
// always wins, and the file is always a complete manifest whose every
// block was recorded. A crash loses at most the checkpoints recorded
// since the last completed write. It is safe for use from OnCheckpoint
// callbacks running on several search goroutines.
type ManifestRecorder struct {
	path string
	// save writes one snapshot; tests swap it to block or count writes.
	save func(path string, m *Manifest) error

	mu      sync.Mutex
	idle    sync.Cond // signalled when the in-flight write ends
	m       *Manifest
	dirty   bool  // m holds state that is not on disk yet
	writing bool  // a background write is in flight
	err     error // a background write's failure, not yet reported
}

// NewManifestRecorder starts a recorder over path. When resuming, seed
// it with the loaded manifest via prior (nil starts empty). The seeded
// state counts as not yet written, so Flush writes it even when no
// checkpoint arrives.
func NewManifestRecorder(path string, jumbles int, prior *Manifest) *ManifestRecorder {
	m := prior
	if m == nil {
		m = NewManifest(jumbles)
	}
	m.Jumbles = jumbles
	r := &ManifestRecorder{path: path, save: SaveManifest, m: m, dirty: true}
	r.idle.L = &r.mu
	return r
}

// Record folds one checkpoint in and makes sure a write of the newest
// state is under way. It returns the error of a background write that
// failed since the previous Record.
func (r *ManifestRecorder) Record(cp Checkpoint) (err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.Set(cp)
	r.dirty = true
	if !r.writing {
		r.writing = true
		go r.writeBehind()
	}
	err, r.err = r.err, nil
	return err
}

// writeBehind writes snapshots until the file holds the newest state or
// a write fails; a failed state stays dirty for the next Record or Flush.
func (r *ManifestRecorder) writeBehind() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.dirty {
		// Checkpoints are values: a copy of the map copies the state.
		snap := NewManifest(r.m.Jumbles)
		for j, cp := range r.m.Checkpoints {
			snap.Checkpoints[j] = cp
		}
		r.dirty = false
		r.mu.Unlock()
		err := r.save(r.path, snap)
		r.mu.Lock()
		if err != nil {
			r.err, r.dirty = err, true
			break
		}
	}
	r.writing = false
	r.idle.Broadcast()
}

// Flush waits for the in-flight write, then writes the newest state if
// it is not on disk yet, and returns that write's error (which the next
// Record reports again). Every run end
// calls it, so no write outlives the run and the file matches the last
// reported checkpoints.
func (r *ManifestRecorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.writing {
		r.idle.Wait()
	}
	r.err = nil
	if r.dirty {
		r.err = r.save(r.path, r.m)
		r.dirty = r.err != nil
	}
	return r.err
}
