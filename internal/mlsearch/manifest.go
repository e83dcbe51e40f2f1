package mlsearch

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// The restart file. A single Checkpoint describes one ordering; a run
// may have several searches in flight at once, so its restart file is a
// manifest: one checkpoint block per jumble that has reported a position
// (a single-jumble run writes one block; done jumbles keep their final
// PhaseDone block, so a resumed run returns their results without
// re-running them). The file is rewritten atomically on every update —
// a crash mid-write leaves the previous complete manifest in place.

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

// Done reports whether every jumble has finished.
func (m *Manifest) Done() bool {
	for j := 0; j < m.Jumbles; j++ {
		if cp, ok := m.Checkpoints[j]; !ok || cp.Phase != PhaseDone {
			return false
		}
	}
	return true
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

// ReadManifest parses a manifest, applying the same strict key checking
// as ReadCheckpoint to every block.
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

// SaveManifest atomically rewrites path: write to a temp file in the
// same directory, then rename over the target.
func SaveManifest(path string, m *Manifest) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteManifest(tmp, m); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadManifest reads a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}

// LoadResume reads a restart file. Every -checkpoint writes a manifest;
// a flat "fastdnaml-checkpoint v1" file from an older single-jumble run
// is still accepted and returned as a one-block manifest.
func LoadResume(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	first, _, _ := strings.Cut(string(data), "\n")
	if strings.TrimSpace(first) != "fastdnaml-checkpoint v1" {
		return ReadManifest(bytes.NewReader(data))
	}
	cp, err := ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if cp.Jumble != 0 {
		return nil, fmt.Errorf("mlsearch: flat checkpoint is for jumble %d; only a single-jumble run's file resumes on its own", cp.Jumble)
	}
	m := NewManifest(1)
	m.Set(cp)
	return m, nil
}

// ManifestRecorder folds the checkpoint stream of concurrent searches
// into one manifest file. It is safe for use from OnCheckpoint callbacks
// running on several search goroutines.
type ManifestRecorder struct {
	mu   sync.Mutex
	path string
	m    *Manifest
}

// NewManifestRecorder starts a recorder over path. When resuming, seed
// it with the loaded manifest via prior (nil starts empty).
func NewManifestRecorder(path string, jumbles int, prior *Manifest) *ManifestRecorder {
	m := prior
	if m == nil {
		m = NewManifest(jumbles)
	}
	m.Jumbles = jumbles
	return &ManifestRecorder{path: path, m: m}
}

// Record folds one checkpoint in and rewrites the file.
func (r *ManifestRecorder) Record(cp Checkpoint) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.Set(cp)
	return SaveManifest(r.path, r.m)
}

// Flush atomically rewrites the file from the current in-memory state.
// An interrupted run calls it after its searches stop so the on-disk
// manifest is guaranteed to match the last reported checkpoints.
func (r *ManifestRecorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return SaveManifest(r.path, r.m)
}

// Manifest returns a snapshot copy of the recorder's current state.
func (r *ManifestRecorder) Manifest() *Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := NewManifest(r.m.Jumbles)
	for j, cp := range r.m.Checkpoints {
		m.Checkpoints[j] = cp
	}
	return m
}
