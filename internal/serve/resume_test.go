package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/likelihood"
	"repro/internal/obs"
)

// TestServerResumeAfterShutdown is the subsystem's acceptance proof:
// kill the daemon mid-search with jobs queued behind the running one,
// restart over the same data directory, and every job completes with
// results bit-identical to an uninterrupted run.
func TestServerResumeAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	aln := testPhylipText(t, 10, 300, 17)
	specs := []JobSpec{
		{Tenant: "a", Alignment: aln, Options: JobOptions{Seed: 3, Jumbles: 3}},
		{Tenant: "b", Alignment: aln, Options: JobOptions{Seed: 101, Jumbles: 2}},
	}

	// First life: one slot, one worker, so the second job is still
	// queued when we pull the plug.
	s1, err := NewServer(Options{
		DataDir:   dir,
		MaxActive: 1,
		Fleet:     FleetOptions{Workers: 1},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, sp := range specs {
		rec, err := s1.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}

	// Wait for the first job to be mid-search: running, with at least
	// one checkpoint recorded.
	awaitJob(t, s1, ids[0], func(e *Event) bool {
		if rec, _ := s1.Get(ids[0]); rec.State.Terminal() {
			t.Fatalf("first job finished (%s) before the shutdown; grow the test dataset", rec.State)
		}
		return e != nil && e.Type == "checkpoint"
	})
	// Graceful shutdown: the running search stops at its round
	// boundary, flushes its manifest, and both jobs persist as queued.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		rec, err := store.LoadRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State != StateQueued {
			t.Fatalf("after shutdown, job %s state %s, want queued", id, rec.State)
		}
	}

	// Second life: the janitor re-queues both; the interrupted one
	// resumes from its manifest instead of starting over.
	reg := obs.NewRegistry()
	s2, err := NewServer(Options{
		DataDir:   dir,
		MaxActive: 2,
		Fleet:     FleetOptions{Workers: 2},
		Registry:  reg,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	if got := s2.met.resumed.Value(); got != 2 {
		t.Errorf("resumed counter = %v, want 2", got)
	}
	for _, id := range ids {
		waitJob(t, s2, id, StateDone)
	}

	// Every jumble of every job matches an uninterrupted serial run bit
	// for bit — the checkpoint/resume path changed nothing.
	for i, sp := range specs {
		want := serialReference(t, sp)
		res, _, err := s2.Result(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jumbles) != len(want) {
			t.Fatalf("job %d: %d jumbles, want %d", i, len(res.Jumbles), len(want))
		}
		for j, w := range want {
			got := res.Jumbles[j]
			if got.Newick != w.BestNewick || got.LnL != w.LnL || got.Seed != w.Seed {
				t.Errorf("job %d jumble %d diverged after resume:\n got %q lnL %v seed %d\nwant %q lnL %v seed %d",
					i, j, got.Newick, got.LnL, got.Seed, w.BestNewick, w.LnL, w.Seed)
			}
		}
	}
}

// TestRestartOverStoredGradientJobs restarts the daemon over a data
// directory written while jobs could ask for "smooth_mode":"gradient".
// The queued gradient job is quarantined, job-scoped, with the one
// refusal attached; the sweep job queued beside it resumes and finishes
// bit-identical to a serial run; and the gradient job that had finished
// stays visible, its stored result still downloadable.
func TestRestartOverStoredGradientJobs(t *testing.T) {
	dir := t.TempDir()
	store, err := NewJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	results, err := NewResultStore(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	// Stored specs are normalized ones, as Submit writes them.
	stored := func(sp JobSpec, mode string) JobSpec {
		t.Helper()
		prep, err := prepareSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		prep.Spec.Options.SmoothMode = mode
		return prep.Spec
	}
	sweep := JobSpec{Tenant: "x", Alignment: testPhylipText(t, 7, 150, 5), Options: JobOptions{Seed: 7}}
	queued, next, done := "j-aaaaaaaaaaaa", "j-bbbbbbbbbbbb", "j-cccccccccccc"
	seedJobDir(t, store, queued, stored(sweep, "gradient"))
	seedJobDir(t, store, next, stored(sweep, "sweep"))

	// The finished gradient job, under the keys its spec hashed to while
	// gradient was accepted (TestResultAndPodKeysAreStable's former
	// "hky85 gradient" row).
	result := &JobResult{
		Key: "5f68918a448817d5cf8c45b914c2c740c70b19a5828c93ace614064a095393a1", BestLnL: -71.25,
		BestNewick: "(alpha:0.1,beta:0.05,(gamma:0.08,(delta:0.07,epsilon:0.12):0.04):0.03);",
		Jumbles:    []JumbleOutcome{{Seed: 1, LnL: -71.25, Newick: "(alpha:0.1,beta:0.05,(gamma:0.08,(delta:0.07,epsilon:0.12):0.04):0.03);"}},
		TotalTasks: 9, TotalOps: 12345,
	}
	if err := results.Put(result); err != nil {
		t.Fatal(err)
	}
	doneSpec := stored(JobSpec{Tenant: "x", Alignment: stableAlignment, Options: JobOptions{Model: "hky", Kappa: 3}}, "gradient")
	if err := store.Create(&JobRecord{
		ID: done, Tenant: "x", State: StateDone, Jumbles: 1, ResultKey: result.Key,
		PodKey: "b9b2b6114abb88bd3d1253a6788cf74d9eaa9ff706d40c21b7a27296c76f6894", Submitted: time.Now(), Finished: time.Now(),
	}, &doneSpec); err != nil {
		t.Fatal(err)
	}

	s, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatalf("a stored gradient job must not stop the daemon: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	rec, err := s.Get(queued)
	if err != nil {
		t.Fatal(err)
	}
	if refusal := likelihood.CheckSmoothMode(likelihood.SmoothGradient).Error(); rec.State != StateQuarantined || !strings.Contains(rec.Error, refusal) {
		t.Errorf("queued gradient job: state %s, error %q; want quarantined with %q", rec.State, rec.Error, refusal)
	}
	if _, _, err := s.Result(queued); err == nil {
		t.Error("quarantined job served a result")
	}
	if n := s.met.quarantined.Value(); n != 1 {
		t.Errorf("quarantined counter = %v, want 1", n)
	}

	waitJob(t, s, next, StateDone)
	res, _, err := s.Result(next)
	if err != nil {
		t.Fatal(err)
	}
	want := serialReference(t, sweep)[0]
	if got := res.Jumbles[0]; got.Newick != want.BestNewick || got.LnL != want.LnL {
		t.Errorf("resumed sweep job: %q lnL %v, serial %q lnL %v", got.Newick, got.LnL, want.BestNewick, want.LnL)
	}

	got, rec2, err := s.Result(done)
	if err != nil {
		t.Fatalf("finished gradient job: %v", err)
	}
	if rec2.State != StateDone || !reflect.DeepEqual(got, result) {
		t.Errorf("finished gradient job: state %s, result %+v; want done, %+v", rec2.State, got, result)
	}
}

// TestServerCrashMidJobResumes: a crash leaves whatever the write-behind
// recorder had completed on disk. A copy of the data directory taken
// mid-job stands for that disk; a second server booted over the copy
// resumes the job and finishes it bit-identical to a serial run.
func TestServerCrashMidJobResumes(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Tenant: "a", Alignment: testPhylipText(t, 10, 300, 17), Options: JobOptions{Seed: 3, Jumbles: 3}}
	s1, err := NewServer(Options{DataDir: dir, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s1.Close() })
	rec, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never checkpointed")
		}
		got, err := s1.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			t.Fatalf("job finished (%s) before the crash; grow the test dataset", got.State)
		}
		if _, statErr := os.Stat(s1.store.ManifestPath(rec.ID)); statErr == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	crashed := t.TempDir()
	copyTree(t, dir, crashed)

	s2, err := NewServer(Options{DataDir: crashed, Fleet: FleetOptions{Workers: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })
	if got := s2.met.resumed.Value(); got != 1 {
		t.Errorf("resumed counter = %v, want 1", got)
	}
	waitJob(t, s2, rec.ID, StateDone)
	res, _, err := s2.Result(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range serialReference(t, spec) {
		got := res.Jumbles[j]
		if got.Newick != want.BestNewick || got.LnL != want.LnL || got.Seed != want.Seed {
			t.Errorf("jumble %d diverged after the crash:\n got %q lnL %v\nwant %q lnL %v", j, got.Newick, got.LnL, want.BestNewick, want.LnL)
		}
	}
}

// copyTree copies the files under src into dst as a running daemon
// leaves them: a file that vanishes mid-walk (a renamed temporary) is
// skipped. Lexical order copies each job's record before its manifest
// and every job before the result store.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
