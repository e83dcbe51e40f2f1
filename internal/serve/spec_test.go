package serve

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// testPhylipText renders a small simulated alignment as PHYLIP text,
// the form jobs are submitted in.
func testPhylipText(t *testing.T, taxa, sites int, seed int64) string {
	t.Helper()
	ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: seed, MeanBranchLen: 0.12})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := seq.WritePhylip(&b, ds.Alignment, 0); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPrepareSpecKeys(t *testing.T) {
	aln := testPhylipText(t, 6, 120, 3)
	base := JobSpec{Tenant: "a", Alignment: aln, Options: JobOptions{Seed: 5, Jumbles: 2}}

	p1, err := prepareSpec(base)
	if err != nil {
		t.Fatal(err)
	}

	// Tenant and priority are scheduling attributes, not content: they
	// must not perturb either key.
	other := base
	other.Tenant, other.Priority = "b", 9
	p2, err := prepareSpec(other)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ResultKey != p2.ResultKey || p1.PodKey != p2.PodKey {
		t.Error("tenant/priority changed a content key")
	}

	// Equivalent option spellings hash identically: explicit defaults
	// versus zero values.
	spelled := base
	spelled.Options = JobOptions{
		Model: "f84", TTRatio: 2.0, Jumbles: 2, Seed: 5,
		Extent: 1, FinalExtent: 1, Precision: "double", Engine: "cached",
	}
	p3, err := prepareSpec(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ResultKey != p3.ResultKey {
		t.Errorf("default spelling changed the result key:\n%s\n%s", p1.ResultKey, p3.ResultKey)
	}

	// A different seed is a different result but the same dataset pod.
	seeded := base
	seeded.Options.Seed = 7
	p4, err := prepareSpec(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if p4.ResultKey == p1.ResultKey {
		t.Error("seed change kept the result key")
	}
	if p4.PodKey != p1.PodKey {
		t.Error("seed change moved the job to another pod")
	}

	// A different model is a different pod.
	jc := base
	jc.Options.Model = "JC69"
	p5, err := prepareSpec(jc)
	if err != nil {
		t.Fatal(err)
	}
	if p5.PodKey == p1.PodKey {
		t.Error("model change kept the pod key")
	}
}

func TestPrepareSpecValidation(t *testing.T) {
	aln := testPhylipText(t, 6, 120, 3)
	bad := []JobSpec{
		{Alignment: ""},
		{Alignment: "not phylip"},
		{Alignment: aln, Options: JobOptions{Model: "nope"}},
		{Alignment: aln, Options: JobOptions{Jumbles: MaxJumbles + 1}},
		{Alignment: aln, Options: JobOptions{GTRRates: []float64{1, 2}}},
		{Alignment: aln, Options: JobOptions{Model: "GTR", GTRRates: []float64{1, 2, 3}}},
		{Alignment: aln, Options: JobOptions{Precision: "float16"}},
		{Alignment: aln, Options: JobOptions{Engine: "warp"}},
		{Alignment: aln, Options: JobOptions{Extent: -1}},
	}
	for i, sp := range bad {
		if _, err := prepareSpec(sp); err == nil {
			t.Errorf("spec %d: invalid spec accepted", i)
		}
	}
	// Defaults alone are a valid job.
	p, err := prepareSpec(JobSpec{Alignment: aln})
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec.Tenant != "default" || p.Spec.Options.Jumbles != 1 || p.Spec.Options.Model != "F84" {
		t.Errorf("defaults not applied: %+v", p.Spec)
	}
}

// stableAlignment and its re-wrapped, interleaved rendering are the same
// data; the literal text keeps the pinned digests below independent of
// the simulator.
const stableAlignment = `5 24
alpha     ACGTACGTTAGCCGATACGATTGC
beta      ACGTACGATAGCCGATACGTTTGC
gamma     ACCTACGTTAGGCGATACGATTCC
delta     ACCTTCGTTAGGCGAAACGATTCC
epsilon   GCCTTCGTTAGGCGAAACGAATCC
`

const stableAlignmentInterleaved = `  5   24
alpha     ACGTACGT TAGC
beta      ACGTACGA TAGC
gamma     ACCTACGT TAGG
delta     ACCTTCGT TAGG
epsilon   GCCTTCGT TAGG

CGATACGA TTGC
CGATACGT TTGC
CGATACGA TTCC
CGAAACGA TTCC
CGAAACGA ATCC
`

// TestResultAndPodKeysAreStable pins the content keys as hex: a daemon
// restarted over an old -data directory must keep hitting its result
// store, so no refactor of the spec may move a digest.
func TestResultAndPodKeysAreStable(t *testing.T) {
	for _, tc := range []struct {
		name        string
		spec        JobSpec
		result, pod string
	}{
		{"defaults", JobSpec{Alignment: stableAlignment},
			"f287b65be595815631a9d15b496892fc2538f8ab2b2404e6ec09978954f575d5", "5629b6254f970d139f253684bb9690363c01e997306c1982a87b2ee83f24a2bb"},
		{"hky85 sweep", JobSpec{Alignment: stableAlignment, Options: JobOptions{
			Model: "hky", Kappa: 3, SmoothMode: "sweep"}},
			"11b319fb71215995809897daeb5107ba51cd2c78ad2e1002ba52de501d884877", "514feb367fc0c4ad553ae50968e31bb53fe966247e980c15089c97cafdc8387a"},
		{"gtr jumbles extents adaptive", JobSpec{Alignment: stableAlignment, Options: JobOptions{
			Model: "GTR", GTRRates: []float64{1, 2.5, 0.5, 0.75, 3, 1}, Jumbles: 3, Seed: 8,
			Extent: 2, FinalExtent: 4, Adaptive: true}},
			"07d64c9b54cb6b7dfd8aeea5296d78019364d703ee0a20d0a1c66d3187498dee", "4b783148e1183ade8e3a34500a3358ed01e6ee0d3a573cee50a223642ee46134"},
		{"reference engine, interleaved rendering", JobSpec{Tenant: "t", Priority: 3, Alignment: stableAlignmentInterleaved,
			Options: JobOptions{Engine: "reference"}},
			"bc0f4f5b2ea9ac41ca63b3cc2639bb71f51787382beaee9a780f2e85a21f5170", "a7cc60a173970cc4be31f4efaf90c04c70ff2ec682e38d63231a93a120ff3a2b"},
	} {
		p, err := prepareSpec(tc.spec)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if p.ResultKey != tc.result || p.PodKey != tc.pod {
			t.Errorf("%s: keys moved\nresult %s\n   pod %s", tc.name, p.ResultKey, p.PodKey)
		}
	}
}

// TestFrontDoorsAgree runs each row through both front doors — the
// fastdnaml CLI's flags (core.Spec.BindFlags, then core.Prepare) and a
// job's JSON options (prepareSpec) — and requires the same verdict and,
// when accepted, the same normalized Spec and the same model, number for
// number. A setting one door would silently default or ignore (-ttratio
// -1, -gtr-rates under another model) is an error at both. No flag sets
// Precision or SmoothMode any more, so a row's lib settings reach the
// first door the way a library caller's core.Spec would; every float32
// and gradient spelling is refused by both doors with the same message.
func TestFrontDoorsAgree(t *testing.T) {
	a, err := seq.ReadPhylip(strings.NewReader(stableAlignment))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		lib    core.Spec
		json   string
		accept bool
	}{
		{nil, core.Spec{}, `{}`, true},
		{[]string{"-model", "f84"}, core.Spec{}, `{"model":"f84"}`, true},
		{[]string{"-model", "HKY"}, core.Spec{}, `{"model":"HKY"}`, true},
		{[]string{"-model", "hky", "-kappa", "3"}, core.Spec{}, `{"model":"hky","kappa":3}`, true},
		{[]string{"-model", "Hky85"}, core.Spec{}, `{"model":"Hky85"}`, true},
		{[]string{"-model", "jc"}, core.Spec{}, `{"model":"jc"}`, true},
		{[]string{"-model", "K80", "-kappa", "4"}, core.Spec{}, `{"model":"K80","kappa":4}`, true},
		{[]string{"-model", "gtr"}, core.Spec{}, `{"model":"gtr"}`, true},
		{[]string{"-model", "GTR", "-gtr-rates", "1,2.5,0.5,0.75,3,1"}, core.Spec{}, `{"model":"GTR","gtr_rates":[1,2.5,0.5,0.75,3,1]}`, true},
		{[]string{"-ttratio", "3.5", "-jumbles", "3", "-seed", "8", "-extent", "2", "-final-extent", "4", "-adaptive"}, core.Spec{},
			`{"ttratio":3.5,"jumbles":3,"seed":8,"extent":2,"final_extent":4,"adaptive":true}`, true},
		{[]string{"-engine", "reference"}, core.Spec{Precision: "double", SmoothMode: "sweep"},
			`{"precision":"f64","engine":"reference","smooth_mode":"sweep"}`, true},
		{[]string{"-model", "WAG"}, core.Spec{}, `{"model":"WAG"}`, false},
		{[]string{"-ttratio", "-1"}, core.Spec{}, `{"ttratio":-1}`, false},
		{[]string{"-model", "HKY85", "-kappa", "-3"}, core.Spec{}, `{"model":"HKY85","kappa":-3}`, false},
		{[]string{"-model", "GTR", "-gtr-rates", "1,2,3"}, core.Spec{}, `{"model":"GTR","gtr_rates":[1,2,3]}`, false},
		{[]string{"-gtr-rates", "1,1,1,1,1,1"}, core.Spec{}, `{"gtr_rates":[1,1,1,1,1,1]}`, false},
		{[]string{"-jumbles", "-2"}, core.Spec{}, `{"jumbles":-2}`, false},
		{[]string{"-extent", "-1"}, core.Spec{}, `{"extent":-1}`, false},
		{[]string{"-final-extent", "-1"}, core.Spec{}, `{"final_extent":-1}`, false},
		{nil, core.Spec{Precision: "float16"}, `{"precision":"float16"}`, false},
		{nil, core.Spec{Precision: "32"}, `{"precision":"32"}`, false},
		{nil, core.Spec{Precision: "single"}, `{"precision":"single"}`, false},
		{nil, core.Spec{Precision: "f32"}, `{"precision":"f32"}`, false},
		{nil, core.Spec{Precision: "float32"}, `{"precision":"float32"}`, false},
		{[]string{"-engine", "warp"}, core.Spec{}, `{"engine":"warp"}`, false},
		{nil, core.Spec{SmoothMode: "zigzag"}, `{"smooth_mode":"zigzag"}`, false},
		{nil, core.Spec{SmoothMode: "gradient"}, `{"smooth_mode":"gradient"}`, false},
		{nil, core.Spec{SmoothMode: "grad"}, `{"smooth_mode":"grad"}`, false},
	} {
		var cli core.Spec
		fs := flag.NewFlagSet("fastdnaml", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cli.BindFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		cli.Precision, cli.SmoothMode = tc.lib.Precision, tc.lib.SmoothMode
		cliCfg, cliOpt, cliErr := core.Prepare(a, core.Options{Spec: cli})

		job := JobSpec{Alignment: stableAlignment}
		if err := json.Unmarshal([]byte(tc.json), &job.Options); err != nil {
			t.Fatalf("%s: %v", tc.json, err)
		}
		prep, jobErr := prepareSpec(job)

		if (cliErr == nil) != tc.accept || (jobErr == nil) != tc.accept {
			t.Errorf("%v / %s: cli error %v, daemon error %v, want accepted=%v by both", tc.args, tc.json, cliErr, jobErr, tc.accept)
			continue
		}
		if !tc.accept {
			if cliErr.Error() != jobErr.Error() {
				t.Errorf("%v / %s: cli says %q, daemon says %q", tc.args, tc.json, cliErr, jobErr)
			}
			continue
		}
		if !reflect.DeepEqual(cliOpt.Spec, prep.Spec.Options) {
			t.Errorf("%v / %s: normalized specs differ\n   cli %+v\ndaemon %+v", tc.args, tc.json, cliOpt.Spec, prep.Spec.Options)
		}
		if cm, jm := cliCfg.Model, prep.Cfg.Model; cm.Name() != jm.Name() || cm.Freqs() != jm.Freqs() ||
			!reflect.DeepEqual(cm.Decomposition(), jm.Decomposition()) {
			t.Errorf("%v / %s: cli built %s %v, daemon %s %v", tc.args, tc.json, cm.Name(), cm.Freqs(), jm.Name(), jm.Freqs())
		}
	}
}
