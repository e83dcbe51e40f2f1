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
	// one checkpoint in its manifest.
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("first job never checkpointed")
		}
		rec, err := s1.Get(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			t.Fatalf("first job finished (%s) before the shutdown; grow the test dataset", rec.State)
		}
		if _, statErr := os.Stat(s1.store.ManifestPath(ids[0])); statErr == nil && rec.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
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
