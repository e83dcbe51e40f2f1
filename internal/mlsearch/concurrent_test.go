package mlsearch

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestForemanTickFloor: Tick is derived as TaskTimeout/4, which for a
// tiny timeout truncates toward zero and used to make RecvTimeout spin.
// The floor keeps the deadline scan at a sane interval.
func TestForemanTickFloor(t *testing.T) {
	cases := []struct {
		opt  ForemanOptions
		want time.Duration
	}{
		{ForemanOptions{}, 50 * time.Millisecond},
		{ForemanOptions{TaskTimeout: time.Second}, 50 * time.Millisecond},
		{ForemanOptions{TaskTimeout: 80 * time.Millisecond}, 20 * time.Millisecond},
		{ForemanOptions{TaskTimeout: 2 * time.Nanosecond}, minForemanTick}, // would truncate to 0
		{ForemanOptions{TaskTimeout: time.Microsecond}, minForemanTick},
		{ForemanOptions{Tick: time.Nanosecond}, minForemanTick}, // explicit sub-floor tick
	}
	for i, c := range cases {
		if got := c.opt.withDefaults().Tick; got != c.want {
			t.Errorf("case %d: tick %v, want %v", i, got, c.want)
		}
	}
}

// TestCheckpointStrictParse: a restart file missing a required key or
// repeating one is rejected at parse time, naming the offending key —
// resuming from a half-parsed position would silently restart the search
// wrong.
func TestCheckpointStrictParse(t *testing.T) {
	cp := Checkpoint{
		Seed: 13, Jumble: 2, Order: []int{4, 1, 0, 3, 2},
		NextIndex: 4, Phase: PhaseAdding,
		Newick: "((t00,t01),t03,t04);", LnL: -1234.5,
	}
	var buf bytes.Buffer
	if err := writeFlatCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

	// Dropping any body line must fail and name the dropped key.
	for i := 1; i < len(lines); i++ {
		key, _, _ := strings.Cut(lines[i], " ")
		trunc := strings.Join(append(append([]string{}, lines[:i]...), lines[i+1:]...), "\n")
		_, err := ReadCheckpoint(strings.NewReader(trunc))
		if err == nil {
			t.Errorf("checkpoint without %q accepted", key)
			continue
		}
		if !strings.Contains(err.Error(), key) {
			t.Errorf("missing-%s error does not name the key: %v", key, err)
		}
	}

	// Duplicating any body line must fail and name the repeated key
	// (last-write-wins would mask corruption).
	for i := 1; i < len(lines); i++ {
		key, _, _ := strings.Cut(lines[i], " ")
		dup := strings.Join(append(append([]string{}, lines...), lines[i]), "\n")
		_, err := ReadCheckpoint(strings.NewReader(dup))
		if err == nil {
			t.Errorf("checkpoint with duplicate %q accepted", key)
			continue
		}
		if !strings.Contains(err.Error(), key) {
			t.Errorf("duplicate-%s error does not name the key: %v", key, err)
		}
	}
}

// TestManifestCodecRoundTrip: the multi-jumble restart file round-trips
// through its text format, and LoadResume reads it and the retired flat
// format.
func TestManifestCodecRoundTrip(t *testing.T) {
	m := NewManifest(4)
	m.Set(Checkpoint{
		Seed: 5, Jumble: 0, Order: []int{2, 0, 1, 3}, NextIndex: 4,
		Phase: PhaseDone, Newick: "((a,b),c,d);", LnL: -100.25,
	})
	m.Set(Checkpoint{
		Seed: 7, Jumble: 2, Order: []int{3, 1, 0, 2}, NextIndex: 3,
		Phase: PhaseAdding, Newick: "(a,b,d);", LnL: -120.5,
	})
	var buf bytes.Buffer
	if err := WriteManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Jumbles != 4 || len(back.Checkpoints) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	for _, j := range []int{0, 2} {
		got, ok := back.Checkpoint(j)
		want := m.Checkpoints[j]
		if !ok || got.Seed != want.Seed || got.Phase != want.Phase ||
			got.Newick != want.Newick || got.LnL != want.LnL || got.NextIndex != want.NextIndex {
			t.Errorf("jumble %d: got %+v want %+v", j, got, want)
		}
	}
	if back.Done() {
		t.Error("half-finished manifest reports done")
	}

	// LoadResume: a manifest file loads as itself; a flat checkpoint
	// file from an older single-jumble run loads as a one-block manifest;
	// a flat file cut out of a multi-jumble run is refused.
	dir := t.TempDir()
	mpath := filepath.Join(dir, "manifest")
	if err := SaveManifest(mpath, m); err != nil {
		t.Fatal(err)
	}
	mm, err := LoadResume(mpath)
	if err != nil || mm.Jumbles != 4 || len(mm.Checkpoints) != 2 {
		t.Fatalf("manifest load: m=%+v err=%v", mm, err)
	}
	for _, j := range []int{0, 2} {
		cpath := filepath.Join(dir, fmt.Sprintf("checkpoint%d", j))
		f, err := os.Create(cpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFlatCheckpoint(f, m.Checkpoints[j]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		mm, err = LoadResume(cpath)
		if j != 0 {
			if err == nil {
				t.Errorf("flat checkpoint for jumble %d accepted as a run of its own", j)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		cp, ok := mm.Checkpoint(0)
		if mm.Jumbles != 1 || len(mm.Checkpoints) != 1 || !ok || cp.Newick != m.Checkpoints[0].Newick {
			t.Fatalf("flat checkpoint load: %+v", mm)
		}
	}
}

func TestManifestReadErrors(t *testing.T) {
	bad := []string{
		"",
		"fastdnaml-checkpoint v1\n",
		"fastdnaml-manifest v1\n", // missing jumbles
		"fastdnaml-manifest v1\njumbles 0\n",
		"fastdnaml-manifest v1\njumbles 2\nseed 5\n",                             // body line outside a block
		"fastdnaml-manifest v1\njumbles 2\nbegin jumble 0\nseed 5\n",             // truncated block
		"fastdnaml-manifest v1\njumbles 2\nbegin jumble 0\nbegin jumble 1\n",     // nested block
		"fastdnaml-manifest v1\njumbles 2\nend jumble\n",                         // end without begin
		"fastdnaml-manifest v1\njumbles 1\nbegin jumble 5\nseed 5\nend jumble\n", // block out of range + missing keys
		"fastdnaml-manifest v1\njumbles 2\njumbles 2\n",                          // duplicate jumbles
	}
	for _, s := range bad {
		if _, err := ReadManifest(strings.NewReader(s)); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

// TestResumeKeepsJumbleIndex is the regression test for the resume
// mislabeling bug: the run loop used its own counter for callback
// indices, so any resumed jumble reported (and re-checkpointed) as
// jumble 0. Callbacks must carry the checkpoint's own index, and the
// result must carry the checkpoint's seed.
func TestResumeKeepsJumbleIndex(t *testing.T) {
	cfg := testConfig(t, 7, 120, 23)
	cfg.Seed = 19
	// A 4-jumble run, interrupted with jumbles 0-2 done and jumble 3 at
	// its second checkpoint.
	m := NewManifest(4)
	seen := 0
	full, err := Run(cfg, RunOptions{
		Transport: Serial,
		Jumbles:   4,
		OnCheckpoint: func(j int, cp Checkpoint) {
			if j == 3 {
				if seen++; seen > 2 {
					return
				}
			}
			m.Set(cp)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mid, ok := m.Checkpoint(3)
	if !ok || mid.Jumble != 3 || mid.Phase != PhaseAdding {
		t.Fatalf("jumble 3 checkpoint %+v", mid)
	}

	var idxs []int
	var resumedCps []Checkpoint
	// A different seed on the command line must not relabel the resumed
	// jumbles: the manifest's seeds win.
	rcfg := cfg
	rcfg.Seed = 1001
	out, err := Run(rcfg, RunOptions{
		Transport:      Serial,
		Jumbles:        4,
		ResumeManifest: m,
		Progress:       func(j int, _ ProgressEvent) { idxs = append(idxs, j) },
		OnCheckpoint: func(j int, cp Checkpoint) {
			idxs = append(idxs, j)
			resumedCps = append(resumedCps, cp)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) == 0 {
		t.Fatal("no callbacks fired on resume")
	}
	for _, j := range idxs {
		if j != 3 {
			t.Fatalf("resumed callbacks report jumble %d, want 3", j)
		}
	}
	for _, cp := range resumedCps {
		if cp.Jumble != 3 {
			t.Fatalf("post-resume checkpoint labeled jumble %d, want 3", cp.Jumble)
		}
	}
	for j, res := range out.Results {
		if res.BestNewick != full.Results[j].BestNewick || res.LnL != full.Results[j].LnL {
			t.Errorf("jumble %d: resumed result differs from the uninterrupted run", j)
		}
		if res.Seed != full.Results[j].Seed {
			t.Errorf("jumble %d: result seed %d, want the checkpoint's %d", j, res.Seed, full.Results[j].Seed)
		}
	}
}

// TestConcurrentJumblesMatchSequential: four jumbles run concurrently as
// jobs over one shared Local fleet; every per-jumble tree and likelihood
// must be bit-identical to the sequential serial schedule, at several
// concurrency/pipeline combinations.
func TestConcurrentJumblesMatchSequential(t *testing.T) {
	cfg := testConfig(t, 7, 140, 21)
	serial, err := Run(cfg, RunOptions{Transport: Serial, Jumbles: 4})
	if err != nil {
		t.Fatal(err)
	}

	cases := []RunOptions{
		{Transport: Local, Workers: 4, Jumbles: 4, MaxConcurrentJumbles: 4},
		{Transport: Local, Workers: 4, Jumbles: 4, MaxConcurrentJumbles: 4, Foreman: ForemanOptions{Pipeline: 1}},
		{Transport: Local, Workers: 2, Jumbles: 4, MaxConcurrentJumbles: 3},
		{Transport: Local, Workers: 4, Jumbles: 4, MaxConcurrentJumbles: 1},
		{Transport: Local, Workers: 4, Jumbles: 4}, // default: min(jumbles, workers)
	}
	for i, opt := range cases {
		out, err := Run(cfg, opt)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(out.Results) != 4 {
			t.Fatalf("case %d: %d results", i, len(out.Results))
		}
		for j, res := range out.Results {
			want := serial.Results[j]
			if res.BestNewick != want.BestNewick {
				t.Errorf("case %d jumble %d: tree differs from sequential", i, j)
			}
			if res.LnL != want.LnL {
				t.Errorf("case %d jumble %d: lnL %g != %g", i, j, res.LnL, want.LnL)
			}
			if res.Seed != want.Seed {
				t.Errorf("case %d jumble %d: seed %d != %d", i, j, res.Seed, want.Seed)
			}
		}
	}
}

// TestConcurrentTCPChaosSoak runs three concurrent jumbles over an
// elastic TCP fleet while workers join, are killed, and drop replies.
// Every jumble must still match the serial answer bit for bit: job
// multiplexing plus membership chaos is pure work distribution.
func TestConcurrentTCPChaosSoak(t *testing.T) {
	cfg := testConfig(t, 8, 140, 47)
	cfg.Seed, cfg.RearrangeExtent = 9, 1
	serial, err := Run(cfg, RunOptions{Transport: Serial, Jumbles: 3})
	if err != nil {
		t.Fatal(err)
	}

	joinCh := make(chan struct{})
	killCh := make(chan struct{})
	var joinOnce, killOnce sync.Once
	var progressed int32
	var progressMu sync.Mutex

	opt := RunOptions{
		Transport:            TCP,
		Addr:                 "127.0.0.1:0",
		Workers:              2,
		Jumbles:              3,
		MaxConcurrentJumbles: 3,
		WithMonitor:          true,
		Foreman:              ForemanOptions{TaskTimeout: 200 * time.Millisecond, Tick: 20 * time.Millisecond, Pipeline: 2},
		Progress: func(jumble int, ev ProgressEvent) {
			progressMu.Lock()
			progressed++
			n := progressed
			progressMu.Unlock()
			if n >= 4 {
				joinOnce.Do(func() { close(joinCh) })
			}
			if n >= 7 {
				killOnce.Do(func() { close(killCh) })
			}
		},
	}
	addrCh := make(chan net.Addr, 1)
	opt.OnListen = func(a net.Addr) { addrCh <- a }

	var wg sync.WaitGroup
	var outcome *RunOutcome
	var masterErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		outcome, masterErr = Run(cfg, opt)
	}()
	addr := (<-addrCh).String()

	fastRetry := ReconnectPolicy{Base: 5 * time.Millisecond, Cap: 40 * time.Millisecond, MaxAttempts: 100}

	// Worker A: well-behaved.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ServeElastic(addr, WorkerHooks{}, ReconnectPolicy{Disabled: true}); err != nil {
			t.Errorf("worker A: %v", err)
		}
	}()

	// Worker B: killed mid-run (connection severed from outside), then
	// rejoins under a fresh rank.
	var victimMu sync.Mutex
	var victimConn comm.Communicator
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = ServeElastic(addr, WorkerHooks{
			OnAttach: func(c comm.Communicator) {
				victimMu.Lock()
				victimConn = c
				victimMu.Unlock()
			},
		}, fastRetry)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-killCh
		victimMu.Lock()
		c := victimConn
		victimMu.Unlock()
		if c != nil {
			c.Close()
		}
	}()

	// Worker C: joins mid-run and drops every 5th reply.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-joinCh
		var dropMu sync.Mutex
		evals := 0
		err := ServeElastic(addr, WorkerHooks{
			BeforeReply: func(task Task, res Result) bool {
				dropMu.Lock()
				defer dropMu.Unlock()
				evals++
				return evals%5 != 0
			},
		}, ReconnectPolicy{Disabled: true})
		if err != nil {
			t.Errorf("worker C: %v", err)
		}
	}()

	wg.Wait()
	if masterErr != nil {
		t.Fatal(masterErr)
	}
	if len(outcome.Results) != 3 {
		t.Fatalf("%d results", len(outcome.Results))
	}
	for j, res := range outcome.Results {
		want := serial.Results[j]
		if res.BestNewick != want.BestNewick {
			t.Errorf("jumble %d: chaos tree differs from serial", j)
		}
		if res.LnL != want.LnL {
			t.Errorf("jumble %d: chaos lnL %g != serial %g", j, res.LnL, want.LnL)
		}
	}
}

// TestManifestResumeRoundTrip simulates a killed run: of three jumbles,
// jumble 0 finished, jumble 1 was mid-addition, jumble 2 never started;
// of one, it was mid-addition. Resuming from the restart file must
// complete every jumble identically to the uninterrupted run, and every
// post-resume callback must keep its own jumble index.
func TestManifestResumeRoundTrip(t *testing.T) {
	for _, jumbles := range []int{1, 3} {
		jumbles := jumbles
		t.Run(fmt.Sprintf("jumbles=%d", jumbles), func(t *testing.T) { testManifestResumeRoundTrip(t, jumbles) })
	}
}

func testManifestResumeRoundTrip(t *testing.T, jumbles int) {
	cfg := testConfig(t, 7, 120, 25)
	byJumble := map[int][]Checkpoint{}
	var mu sync.Mutex
	full, err := Run(cfg, RunOptions{
		Transport: Local, Workers: 2, Jumbles: jumbles, MaxConcurrentJumbles: 3,
		OnCheckpoint: func(j int, cp Checkpoint) {
			mu.Lock()
			byJumble[j] = append(byJumble[j], cp)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < jumbles; j++ {
		if len(byJumble[j]) < 2 {
			t.Fatalf("jumble %d emitted %d checkpoints", j, len(byJumble[j]))
		}
		for _, cp := range byJumble[j] {
			if cp.Jumble != j {
				t.Fatalf("jumble %d checkpoint labeled %d", j, cp.Jumble)
			}
		}
	}

	// The "kill": the recorder has seen the last jumble-but-one's second
	// checkpoint, the final checkpoints of those before it, and nothing
	// of the last of three. The restart file is what it wrote.
	path := filepath.Join(t.TempDir(), "manifest")
	rec := NewManifestRecorder(path, jumbles, nil)
	mid := 0
	if jumbles > 1 {
		mid = 1
		if err := rec.Record(byJumble[0][len(byJumble[0])-1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Record(byJumble[mid][1]); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResume(path)
	if err != nil {
		t.Fatal(err)
	}

	resumedCps := map[int][]Checkpoint{}
	out, err := Run(cfg, RunOptions{
		Transport: Local, Workers: 2, Jumbles: jumbles, MaxConcurrentJumbles: 3,
		ResumeManifest: loaded,
		Progress: func(j int, _ ProgressEvent) {
			if j < mid || j >= jumbles {
				t.Errorf("progress event for jumble %d", j)
			}
		},
		OnCheckpoint: func(j int, cp Checkpoint) {
			mu.Lock()
			resumedCps[j] = append(resumedCps[j], cp)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range out.Results {
		want := full.Results[j]
		if res.BestNewick != want.BestNewick || res.LnL != want.LnL {
			t.Errorf("jumble %d: resumed result differs", j)
		}
		if res.Seed != want.Seed {
			t.Errorf("jumble %d: resumed seed %d != %d", j, res.Seed, want.Seed)
		}
	}
	if len(resumedCps[mid]) == 0 {
		t.Errorf("interrupted jumble %d emitted no checkpoints after the resume", mid)
	}
	// Post-resume checkpoints keep their own indices (the mislabeling
	// regression).
	for j, cps := range resumedCps {
		for _, cp := range cps {
			if cp.Jumble != j {
				t.Errorf("post-resume checkpoint for jumble %d labeled %d", j, cp.Jumble)
			}
		}
	}
	if jumbles == 1 {
		return
	}
	// The finished jumble must not have re-run.
	if out.Results[0].TotalTasks != 0 {
		t.Errorf("done jumble re-ran %d tasks", out.Results[0].TotalTasks)
	}
	if len(resumedCps[0]) != 0 {
		t.Errorf("done jumble emitted %d new checkpoints", len(resumedCps[0]))
	}
	if len(resumedCps[2]) == 0 {
		t.Error("fresh jumble 2 emitted no checkpoints on resume")
	}
}
