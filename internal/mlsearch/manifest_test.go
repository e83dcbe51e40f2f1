package mlsearch

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fakeCheckpoints is a run's checkpoint stream without the search: per
// jumble, the positions 3…5 of a six-taxon order, then its done block.
func fakeCheckpoints(jumbles int) []Checkpoint {
	var cps []Checkpoint
	for next := 3; next <= 6; next++ {
		for j := 0; j < jumbles; j++ {
			phase := PhaseAdding
			if next == 6 {
				phase = PhaseDone
			}
			cps = append(cps, Checkpoint{
				Seed: int64(11 + j), Jumble: j, Order: []int{5, 4, 3, 2, 1, 0},
				NextIndex: next, Phase: phase,
				Newick: fmt.Sprintf("(t0,t1,t%d);", next), LnL: -100 - float64(next),
			})
		}
	}
	return cps
}

// manifestBytes is WriteManifest of the given run state.
func manifestBytes(t *testing.T, jumbles int, cps []Checkpoint) []byte {
	t.Helper()
	m := NewManifest(jumbles)
	for _, cp := range cps {
		m.Set(cp)
	}
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitNoWriter fails unless the recorder's writer is gone and the
// goroutine count is back to before.
func waitNoWriter(t *testing.T, rec *ManifestRecorder, before int) {
	t.Helper()
	rec.mu.Lock()
	writing := rec.writing
	rec.mu.Unlock()
	if writing {
		t.Fatal("a write is still in flight after Flush")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Flush, %d before the first Record", after, before)
	}
}

// TestManifestRecorderCoalescesWrites: while one write is blocked, any
// number of Records returns at once and costs at most one further write,
// of the newest state; Flush then writes nothing more and leaves no
// writer behind.
func TestManifestRecorderCoalescesWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest")
	rec := NewManifestRecorder(path, 3, nil)
	var mu sync.Mutex
	writes := 0
	blocked, release := make(chan struct{}), make(chan struct{})
	rec.save = func(p string, m *Manifest) error {
		mu.Lock()
		writes++
		first := writes == 1
		mu.Unlock()
		if first {
			close(blocked)
			<-release
		}
		return SaveManifest(p, m)
	}
	before := runtime.NumGoroutine()
	cps := fakeCheckpoints(3)
	if err := rec.Record(cps[0]); err != nil {
		t.Fatal(err)
	}
	<-blocked
	for _, cp := range cps[1:] {
		if err := rec.Record(cp); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	// The writer catches up on its own, with one more write.
	waitIdle(rec)
	want := manifestBytes(t, 3, cps)
	for _, when := range []string{"once the writer is idle", "after Flush"} {
		if when == "after Flush" {
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		mu.Lock()
		if writes != 2 {
			t.Errorf("%s: %d Records during one blocked write cost %d writes, want 2", when, len(cps)-1, writes)
		}
		mu.Unlock()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s the file is\n%s\nwant the newest state\n%s", when, got, want)
		}
	}
	waitNoWriter(t, rec, before)
}

// waitIdle returns once no write is in flight.
func waitIdle(rec *ManifestRecorder) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for rec.writing {
		rec.idle.Wait()
	}
}

// TestManifestRecorderFlushWritesUnwrittenState: a recorder whose
// newest state is on disk does not write again, while state seeded from
// a prior manifest, or an empty run, counts as unwritten — so
// "-resume a -checkpoint b" stopped before its first checkpoint still
// leaves b.
func TestManifestRecorderFlushWritesUnwrittenState(t *testing.T) {
	cps := fakeCheckpoints(2)
	prior := NewManifest(2)
	prior.Set(cps[0])
	for _, tc := range []struct {
		name  string
		prior *Manifest
		want  []Checkpoint
	}{
		{"fresh", nil, nil},
		{"resumed", prior, cps[:1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "manifest")
			rec := NewManifestRecorder(path, 2, tc.prior)
			writes := 0
			rec.save = func(p string, m *Manifest) error {
				writes++
				return SaveManifest(p, m)
			}
			for i := 0; i < 2; i++ {
				if err := rec.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := manifestBytes(t, 2, tc.want); !bytes.Equal(got, want) {
				t.Errorf("file\n%s\nwant\n%s", got, want)
			}
			if writes != 1 {
				t.Errorf("two Flushes wrote %d times, want 1", writes)
			}
		})
	}
}

// TestManifestRecorderReportsFailedWrite: a background write's error is
// returned by the next Record and by Flush, the failed state stays
// unwritten, and a later Flush retries it.
func TestManifestRecorderReportsFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest")
	rec := NewManifestRecorder(path, 2, nil)
	disk := errors.New("disk full")
	var mu sync.Mutex
	failing := true
	rec.save = func(p string, m *Manifest) error {
		mu.Lock()
		defer mu.Unlock()
		if failing {
			return disk
		}
		return SaveManifest(p, m)
	}
	cps := fakeCheckpoints(2)
	if err := rec.Record(cps[0]); err != nil {
		t.Fatalf("first Record: %v", err)
	}
	// Wait for the background write to fail, then the next Record says so.
	waitIdle(rec)
	if err := rec.Record(cps[1]); !errors.Is(err, disk) {
		t.Errorf("Record after a failed write returned %v, want %v", err, disk)
	}
	if err := rec.Flush(); !errors.Is(err, disk) {
		t.Errorf("Flush with the disk failing returned %v, want %v", err, disk)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed write left a file: %v", err)
	}
	mu.Lock()
	failing = false
	mu.Unlock()
	if err := rec.Flush(); err != nil {
		t.Fatalf("retrying Flush: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := manifestBytes(t, 2, cps[:2]); !bytes.Equal(got, want) {
		t.Errorf("retried file\n%s\nwant\n%s", got, want)
	}
}

// TestManifestReaderSeesOnlyRecordedProgress polls the restart file of
// a three-jumble run while it is written behind the searches: the file
// always parses, every block in it is a checkpoint that was recorded,
// and no jumble's position ever goes backwards.
func TestManifestReaderSeesOnlyRecordedProgress(t *testing.T) {
	const jumbles = 3
	cfg := testConfig(t, 7, 120, 25)
	path := filepath.Join(t.TempDir(), "manifest")
	rec := NewManifestRecorder(path, jumbles, nil)
	var mu sync.Mutex
	recorded := map[string]bool{}
	key := func(cp Checkpoint) string { return fmt.Sprintf("%+v", cp) }

	stop := make(chan struct{})
	reads := 0
	var readerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[int]int{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, err := LoadManifest(path)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				readerErr = fmt.Errorf("read %d: %w", reads, err)
				return
			}
			reads++
			mu.Lock()
			for j, cp := range m.Checkpoints {
				if !recorded[key(cp)] {
					readerErr = fmt.Errorf("read %d: jumble %d block was never recorded: %+v", reads, j, cp)
				}
				if cp.NextIndex < last[j] {
					readerErr = fmt.Errorf("read %d: jumble %d went back from %d to %d", reads, j, last[j], cp.NextIndex)
				}
				last[j] = cp.NextIndex
			}
			mu.Unlock()
			if readerErr != nil {
				return
			}
		}
	}()

	_, err := Run(cfg, RunOptions{
		Transport: Local, Workers: 2, Jumbles: jumbles, MaxConcurrentJumbles: jumbles,
		OnCheckpoint: func(_ int, cp Checkpoint) {
			mu.Lock()
			recorded[key(cp)] = true
			mu.Unlock()
			if err := rec.Record(cp); err != nil {
				t.Error(err)
			}
		},
	})
	if ferr := rec.Flush(); err == nil {
		err = ferr
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Finished(); n != m.Jumbles {
		t.Errorf("flushed manifest of a finished run has %d of %d jumbles done: %+v", n, m.Jumbles, m.Checkpoints)
	}
	t.Logf("%d reads of %d recorded checkpoints", reads, len(recorded))
}
