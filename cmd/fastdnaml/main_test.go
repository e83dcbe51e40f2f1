package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mlsearch"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// writeTestAlignment produces a small PHYLIP file for CLI-level tests.
func writeTestAlignment(t *testing.T, taxa, sites int) string {
	t.Helper()
	ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "align.phy")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.WritePhylip(f, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// flags is the options a command line parses to, through the same
// bindFlags main uses.
func flags(t *testing.T, args ...string) options {
	t.Helper()
	var o options
	fs := flag.NewFlagSet("fastdnaml", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o.bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRunSerialWritesOutputs(t *testing.T) {
	in := writeTestAlignment(t, 6, 120)
	prefix := filepath.Join(t.TempDir(), "run")
	err := run(in, flags(t, "-jumbles", "2", "-quiet", "-out", prefix))
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".trees", ".best.tree", ".consensus.tree"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Errorf("missing output %s: %v", suffix, err)
		}
	}
}

func TestRunParallelMode(t *testing.T) {
	in := writeTestAlignment(t, 6, 100)
	err := run(in, flags(t, "-quiet", "-workers", "2"))
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckpointThenResume: every -checkpoint, a single jumble's
// included, writes the one restart format (a manifest), and -resume reads
// it back to the same trees.
func TestRunCheckpointThenResume(t *testing.T) {
	in := writeTestAlignment(t, 6, 100)
	dir := t.TempDir()
	cpPath := filepath.Join(dir, "cp.txt")
	base := flags(t, "-quiet")
	first := base
	first.checkpoint, first.outPrefix = cpPath, filepath.Join(dir, "first")
	if err := run(in, first); err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal("no checkpoint written")
	}
	const head = "fastdnaml-manifest v1\njumbles 1\nbegin jumble 0\n"
	if !strings.HasPrefix(string(manifest), head) {
		t.Fatalf("restart file is not a one-block manifest:\n%s", manifest)
	}
	// The run flushed its write-behind manifest before returning.
	m, err := mlsearch.ReadManifest(strings.NewReader(string(manifest)))
	if err != nil {
		t.Fatal(err)
	}
	for j, cp := range m.Checkpoints {
		if cp.Phase != mlsearch.PhaseDone {
			t.Errorf("after the run, jumble %d's block is %s, want %s", j, cp.Phase, mlsearch.PhaseDone)
		}
	}
	want, err := os.ReadFile(first.outPrefix + ".trees")
	if err != nil {
		t.Fatal(err)
	}
	again := base
	again.resume, again.outPrefix = cpPath, filepath.Join(dir, "again")
	if err := run(in, again); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := os.ReadFile(again.outPrefix + ".trees")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("resumed trees differ from the checkpointed run's")
	}
}

// TestRunCheckpointedConsensus: a checkpointed multi-jumble run reports
// through the same packaging as a plain one, majority rule consensus
// included.
func TestRunCheckpointedConsensus(t *testing.T) {
	in := writeTestAlignment(t, 6, 120)
	dir := t.TempDir()
	plain := flags(t, "-jumbles", "3", "-quiet", "-out", filepath.Join(dir, "plain"))
	checkpointed := plain
	checkpointed.outPrefix = filepath.Join(dir, "checkpointed")
	checkpointed.checkpoint = filepath.Join(dir, "cp.txt")
	for _, o := range []options{plain, checkpointed} {
		if err := run(in, o); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(plain.outPrefix + ".consensus.tree")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(checkpointed.outPrefix + ".consensus.tree")
	if err != nil {
		t.Fatalf("checkpointed run wrote no consensus: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("checkpointed consensus %s, plain run's %s", got, want)
	}
}

// TestResumeAdoptsManifestJumbles: -resume without -jumbles takes the
// manifest's jumble count as the run's Spec.Jumbles, so the resumed run
// reports every jumble the checkpointed one did.
func TestResumeAdoptsManifestJumbles(t *testing.T) {
	in := writeTestAlignment(t, 6, 100)
	dir := t.TempDir()
	first := flags(t, "-jumbles", "2", "-quiet", "-out", filepath.Join(dir, "first"))
	first.checkpoint = filepath.Join(dir, "cp.txt")
	if err := run(in, first); err != nil {
		t.Fatal(err)
	}
	again := flags(t, "-quiet")
	again.resume = first.checkpoint
	if _, err := wireRestart(&again); err != nil {
		t.Fatal(err)
	}
	if again.Jumbles != 2 || again.Run.ResumeManifest == nil {
		t.Fatalf("resumed Spec.Jumbles %d (manifest set: %v), want the manifest's 2", again.Jumbles, again.Run.ResumeManifest != nil)
	}
	again = flags(t, "-quiet", "-out", filepath.Join(dir, "again"))
	again.resume = first.checkpoint
	if err := run(in, again); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(first.outPrefix + ".trees")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(again.outPrefix + ".trees")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resumed trees\n%s\nwant the checkpointed run's\n%s", got, want)
	}
}

func TestRunUserTreesMode(t *testing.T) {
	in := writeTestAlignment(t, 6, 100)
	prefix := filepath.Join(t.TempDir(), "search")
	if err := run(in, flags(t, "-jumbles", "2", "-quiet", "-out", prefix)); err != nil {
		t.Fatal(err)
	}
	if err := run(in, flags(t, "-quiet", "-usertrees", prefix+".trees")); err != nil {
		t.Fatal(err)
	}
}

func TestRunBootstrapMode(t *testing.T) {
	in := writeTestAlignment(t, 6, 150)
	if err := run(in, flags(t, "-quiet", "-bootstrap", "2")); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsIgnoredFlagCombinations: a flag that the chosen mode
// would silently ignore is an error naming both flags, raised before any
// work starts — the input file here does not even exist.
func TestRunRejectsIgnoredFlagCombinations(t *testing.T) {
	base := flags(t, "-quiet")
	for _, tc := range []struct {
		a, b string
		set  func(*options)
	}{
		{"-bootstrap", "-checkpoint", func(o *options) { o.bootstrap, o.checkpoint = 3, "cp.txt" }},
		{"-bootstrap", "-resume", func(o *options) { o.bootstrap, o.resume = 3, "cp.txt" }},
		{"-bootstrap", "-listen", func(o *options) { o.bootstrap, o.listen = 3, "127.0.0.1:0" }},
		{"-usertrees", "-listen", func(o *options) { o.userTrees, o.listen = "t.trees", "127.0.0.1:0" }},
		{"-usertrees", "-checkpoint", func(o *options) { o.userTrees, o.checkpoint = "t.trees", "cp.txt" }},
		{"-listen", "-workers", func(o *options) { o.listen, o.Run.Workers = "127.0.0.1:0", 2 }},
	} {
		o := base
		tc.set(&o)
		err := run(filepath.Join(t.TempDir(), "nope.phy"), o)
		if err == nil || !strings.Contains(err.Error(), tc.a+" ") || !strings.Contains(err.Error(), tc.b) {
			t.Errorf("%s with %s: error %v, want one naming both flags", tc.a, tc.b, err)
		}
	}
}

// TestRunPrecisionFlagIsGone: CLVs are float64 only, so -precision is
// an unknown flag; a command line that still passes it fails loudly
// instead of running something other than what it asked for.
func TestRunPrecisionFlagIsGone(t *testing.T) { assertFlagGone(t, "precision", "float32", "float64") }

// TestRunSmoothModeFlagIsGone: the Newton sweep is the only smoother, so
// -smooth-mode is an unknown flag whichever mode it names.
func TestRunSmoothModeFlagIsGone(t *testing.T) { assertFlagGone(t, "smooth-mode", "gradient", "sweep") }

// assertFlagGone parses -name v for each value on fastdnaml's flag set
// and requires the unknown-flag error.
func assertFlagGone(t *testing.T, name string, values ...string) {
	t.Helper()
	for _, v := range values {
		var o options
		fs := flag.NewFlagSet("fastdnaml", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o.bindFlags(fs)
		err := fs.Parse([]string{"-" + name, v})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s %s: %v, want an unknown-flag error", name, v, err)
		}
	}
}

func TestRunRejectsMissingInput(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.phy"), options{}); err == nil {
		t.Error("missing input accepted")
	}
}

// TestRunModelFlag: the model flags take the spellings and refuse the
// values a fastdnamld job's options do (core.Spec.Normalize is the one
// table; internal/serve's TestFrontDoorsAgree compares the two doors row
// by row). A setting that would be ignored is an error, not a default.
func TestRunModelFlag(t *testing.T) {
	in := writeTestAlignment(t, 6, 100)
	for _, m := range []string{"JC69", "K80", "HKY85", "HKY", "gtr"} {
		if err := run(in, flags(t, "-quiet", "-model", m)); err != nil {
			t.Errorf("model %s: %v", m, err)
		}
	}
	for _, bad := range [][]string{
		{"-model", "BOGUS"},
		{"-ttratio", "-1"},
		{"-model", "HKY85", "-kappa", "-3"},
		{"-gtr-rates", "1,2,3,4,5,6"}, // with the default F84
		{"-model", "GTR", "-gtr-rates", "1,2,3"},
	} {
		if err := run(in, flags(t, append([]string{"-quiet"}, bad...)...)); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestRunMonitorFlag: -monitor is a boolean flag that sets the monitor's
// output; -monitor=false (or a later -monitor=false) leaves it off.
func TestRunMonitorFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		on   bool
	}{
		{nil, false},
		{[]string{"-monitor"}, true},
		{[]string{"-monitor=true"}, true},
		{[]string{"-monitor=false"}, false},
		{[]string{"-monitor", "-monitor=false"}, false},
	} {
		if on := flags(t, tc.args...).Run.MonitorOut != nil; on != tc.on {
			t.Errorf("%v: monitor on = %v, want %v", tc.args, on, tc.on)
		}
	}
	fs := flag.NewFlagSet("fastdnaml", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	o.bindFlags(fs)
	if err := fs.Parse([]string{"-monitor=maybe"}); err == nil {
		t.Error("-monitor=maybe accepted")
	}
}
