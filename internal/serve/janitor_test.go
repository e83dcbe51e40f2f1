package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/mlsearch"
	"repro/internal/obs"
)

// seedJobDir fabricates an admitted-but-incomplete job on disk, the
// state a crashed daemon leaves behind.
func seedJobDir(t *testing.T, store *JobStore, id string, spec JobSpec) {
	t.Helper()
	rec := &JobRecord{
		ID:        id,
		Tenant:    spec.Tenant,
		State:     StateRunning,
		Submitted: time.Now(),
	}
	if err := store.Create(rec, &spec); err != nil {
		t.Fatal(err)
	}
}

// TestJanitorRestartsTruncatedManifest: a restart manifest that does
// not parse is a fresh start, not a quarantine — the job ends done with
// the bits of a serial run, beside a neighbor that runs as usual.
func TestJanitorRestartsTruncatedManifest(t *testing.T) {
	dir := t.TempDir()
	store, err := NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	aln := testPhylipText(t, 7, 150, 5)
	corrupt, healthy := "j-aaaaaaaaaaaa", "j-bbbbbbbbbbbb"
	spec := JobSpec{Tenant: "x", Alignment: aln, Options: JobOptions{Seed: 3, Jumbles: 2}}
	seedJobDir(t, store, corrupt, spec)
	seedJobDir(t, store, healthy, JobSpec{Tenant: "x", Alignment: aln, Options: JobOptions{Seed: 7}})

	// The corrupt job's restart manifest stops mid-block, as if the
	// process died inside a non-atomic write.
	truncated := "fastdnaml-manifest v1\njumbles 2\nbegin jumble 0\nseed 3\n"
	if err := os.WriteFile(store.ManifestPath(corrupt), []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	var (
		mu    sync.Mutex
		lines []string
	)
	s, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Logf: func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatalf("a truncated manifest must not stop the daemon: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	waitJob(t, s, corrupt, StateDone)
	waitJob(t, s, healthy, StateDone)
	if n := s.met.quarantined.Value(); n != 0 {
		t.Errorf("quarantined counter = %v, want 0", n)
	}
	mu.Lock()
	logged := strings.Join(lines, "\n")
	mu.Unlock()
	if strings.Count(logged, "job "+corrupt+": restart manifest unreadable, starting fresh: ") != 1 || strings.Contains(logged, "job "+corrupt+": recovered") {
		t.Errorf("want one recovery line, the unreadable manifest's, for %s:\n%s", corrupt, logged)
	}

	prep, err := prepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := mlsearch.Run(prep.Cfg, mlsearch.RunOptions{Transport: mlsearch.Serial, Jumbles: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Result(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range serial.Results {
		got := res.Jumbles[j]
		if got.Newick != want.BestNewick || got.LnL != want.LnL || got.Seed != want.Seed {
			t.Errorf("jumble %d:\n got %q lnL %v\nwant %q lnL %v", j, got.Newick, got.LnL, want.BestNewick, want.LnL)
		}
	}
}

func TestJanitorQuarantinesUnreadableSpec(t *testing.T) {
	dir := t.TempDir()
	store, err := NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := "j-cccccccccccc"
	seedJobDir(t, store, id, JobSpec{Alignment: testPhylipText(t, 6, 100, 5)})
	if err := os.WriteFile(store.Dir(id)+"/spec.json", []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	rec, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQuarantined {
		t.Errorf("state %s, want quarantined", rec.State)
	}
}

// TestJanitorResumesQueuedRecordWithManifest: the daemon no longer
// persists the running state, so a crash mid-job leaves a record that
// says queued beside a manifest. The janitor resumes the job from that
// manifest, and it finishes bit-identical to a serial run.
func TestJanitorResumesQueuedRecordWithManifest(t *testing.T) {
	dir := t.TempDir()
	store, err := NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Tenant: "x", Alignment: testPhylipText(t, 8, 200, 9), Options: JobOptions{Seed: 13, Jumbles: 2}}
	prep, err := prepareSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The crashed daemon's manifest: jumble 0 mid-addition, jumble 1
	// not started.
	var cps []mlsearch.Checkpoint
	full, err := mlsearch.Run(prep.Cfg, mlsearch.RunOptions{
		Transport: mlsearch.Serial, Jumbles: 2,
		OnCheckpoint: func(_ int, cp mlsearch.Checkpoint) { cps = append(cps, cp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 2 || cps[1].Jumble != 0 || cps[1].Phase != mlsearch.PhaseAdding {
		t.Fatalf("unexpected checkpoint stream %+v", cps)
	}
	id := "j-dddddddddddd"
	if err := store.Create(&JobRecord{ID: id, Tenant: "x", State: StateQueued, Submitted: time.Now()}, &spec); err != nil {
		t.Fatal(err)
	}
	m := mlsearch.NewManifest(2)
	m.Set(cps[1])
	if err := mlsearch.SaveManifest(store.ManifestPath(id), m); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if got := s.met.resumed.Value(); got != 1 {
		t.Errorf("resumed counter = %v, want 1", got)
	}
	waitJob(t, s, id, StateDone)
	res, _, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	fullTasks := 0
	for j, want := range full.Results {
		got := res.Jumbles[j]
		if got.Newick != want.BestNewick || got.LnL != want.LnL || got.Seed != want.Seed {
			t.Errorf("jumble %d diverged after resume:\n got %q lnL %v\nwant %q lnL %v", j, got.Newick, got.LnL, want.BestNewick, want.LnL)
		}
		fullTasks += want.TotalTasks
	}
	// Resumed, not restarted: the rounds before the checkpoint are not
	// dispatched again.
	if res.TotalTasks >= fullTasks {
		t.Errorf("resumed job dispatched %d tasks, a full run %d", res.TotalTasks, fullTasks)
	}
}

// rebootOverStoredResult boots a server over dir, where job id is not
// terminal on disk but its result is stored, and checks that the job is
// done at once: no pod is made, nothing is resumed, and the stored
// document — its totals among it — is not written again.
func rebootOverStoredResult(t *testing.T, dir, id string) {
	t.Helper()
	store, err := NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := store.LoadRecord(id)
	if err != nil {
		t.Fatal(err)
	}
	if disk.State != StateQueued {
		t.Fatalf("job %s is %s on disk, want queued", id, disk.State)
	}
	resultPath := filepath.Join(dir, "results", disk.ResultKey+".json")
	stored, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Registry: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(id); err != nil || got.State != StateDone {
		t.Errorf("job %s at boot: %s (%v), want done", id, got.State, err)
	}
	if n := s.met.resumed.Value(); n != 0 {
		t.Errorf("resumed counter = %v, want 0", n)
	}
	rec := waitJob(t, s, id, StateDone)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := scrape(t, reg)["fdml_serve_pods_created_total"]; n != 0 {
		t.Errorf("%v pods created for a job whose result is stored", n)
	}
	after, err := os.ReadFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, stored) {
		t.Errorf("stored result rewritten:\n%s\nwas\n%s", after, stored)
	}
	if disk, err := store.LoadRecord(id); err != nil || disk.State != StateDone {
		t.Errorf("job %s record on disk after the reboot: %+v (%v), want done", id, disk, err)
	}
	if rec.Finished.IsZero() {
		t.Errorf("job %s adopted done without a finish time", id)
	}
}

// TestRecoveryTrustsStoredResult: a crash between a job's result write
// and its done record leaves a queued record beside a stored result. The
// next boot adopts the job done instead of resuming it.
func TestRecoveryTrustsStoredResult(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Tenant: "a", Alignment: testPhylipText(t, 7, 150, 5), Options: JobOptions{Seed: 3, Jumbles: 2}}
	s, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, rec.ID, StateDone)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	disk, err := s.store.LoadRecord(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	disk.State, disk.Finished = StateQueued, time.Time{}
	if err := s.store.SaveRecord(disk); err != nil {
		t.Fatal(err)
	}
	rebootOverStoredResult(t, dir, rec.ID)
}

// TestFailedDoneRecordIsLogged: a done record that cannot be written is
// logged, and leaves the state a crash before that write leaves, which
// the next boot settles as done.
func TestFailedDoneRecordIsLogged(t *testing.T) {
	dir := t.TempDir()
	var (
		mu    sync.Mutex
		lines []string
	)
	s, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Logf: func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		t.Log(line)
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.store.write = func(path string, v any) error {
		if rec, ok := v.(*JobRecord); ok && rec.State == StateDone {
			return &os.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
		}
		return writeJSON(path, v)
	}
	rec, err := s.Submit(JobSpec{Tenant: "a", Alignment: testPhylipText(t, 6, 100, 4), Options: JobOptions{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s, rec.ID, StateDone)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	logged := strings.Join(lines, "\n")
	mu.Unlock()
	if want := fmt.Sprintf("job %s: saving its done record: ", rec.ID); !strings.Contains(logged, want) ||
		!strings.Contains(logged, syscall.ENOSPC.Error()) {
		t.Errorf("the failed done record was not logged (want %q and %q):\n%s", want, syscall.ENOSPC.Error(), logged)
	}
	rebootOverStoredResult(t, dir, rec.ID)
}
