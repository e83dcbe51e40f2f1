package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mlsearch"
	"repro/internal/obs"
)

var updateMetrics = flag.Bool("update-metrics", false, "rewrite testdata/golden_metrics.json from this build")

// exposition is the comparable part of a /metrics document: every
// family's type, every nonzero counter and gauge sample, and every
// nonzero histogram _count. Histogram _bucket and _sum lines hold
// latencies and are left out, as are help texts and the order of lines.
type exposition struct {
	Families map[string]string  `json:"families"`
	Samples  map[string]float64 `json:"samples"`
}

func readExposition(t *testing.T, reg *obs.Registry) exposition {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	e := exposition{Families: map[string]string{}, Samples: map[string]float64{}}
	var samples []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			e.Families[name] = kind
		} else if line != "" && !strings.HasPrefix(line, "#") {
			samples = append(samples, line)
		}
	}
	for _, line := range samples {
		series, value, _ := strings.Cut(line, " ")
		name, _, _ := strings.Cut(series, "{")
		if e.Families[name] == "" && e.Families[strings.TrimSuffix(name, "_count")] != "histogram" {
			continue // a histogram's _bucket or _sum
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if v != 0 {
			e.Samples[series] = v
		}
	}
	return e
}

// TestGoldenMetricsExposition pins what /metrics says after two fixed
// scenarios: a Local run, and a daemon whose one pod slot is evicted
// twice, so that a retired pod's counts must outlive it. Only
// deterministic values are held: a search's results, round and task
// counts do not depend on scheduling here (one worker, one job at a
// time). A change that means to move them regenerates the file with
// go test -run TestGoldenMetricsExposition ./internal/serve/ -update-metrics
// and says so.
func TestGoldenMetricsExposition(t *testing.T) {
	got := map[string]exposition{}

	// (a) A Local run: one worker, two jumbles.
	prep, err := prepareSpec(JobSpec{Alignment: testPhylipText(t, 7, 150, 11), Options: JobOptions{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opt := mlsearch.RunOptions{Transport: mlsearch.Local, Workers: 1, Jumbles: 2, Obs: mlsearch.NewRunObserver(reg, nil)}
	if _, err := mlsearch.Run(prep.Cfg, opt); err != nil {
		t.Fatal(err)
	}
	got["local"] = readExposition(t, reg)

	// (b) A daemon with one pod slot and one job slot: three jobs over
	// two alignments run in submission order, each on a new pod.
	reg = obs.NewRegistry()
	s, _ := newTestServer(t, Options{
		MaxActive: 1, Fleet: FleetOptions{MaxPods: 1, Workers: 1},
		GCInterval: time.Hour, Registry: reg,
	})
	alnA, alnB := testPhylipText(t, 6, 120, 21), testPhylipText(t, 6, 120, 22)
	var ids []string
	for _, spec := range []JobSpec{
		{Tenant: "lab", Alignment: alnA, Options: JobOptions{Seed: 1}},
		{Tenant: "lab", Alignment: alnB, Options: JobOptions{Seed: 1}},
		{Tenant: "lab", Alignment: alnA, Options: JobOptions{Seed: 2}},
	} {
		rec, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	for _, id := range ids {
		waitJob(t, s, id, StateDone)
	}
	got["daemon"] = readExposition(t, reg)

	path := filepath.Join("testdata", "golden_metrics.json")
	if *updateMetrics {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]exposition
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, scenario := range []string{"local", "daemon"} {
		g, w := got[scenario], want[scenario]
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: /metrics differs from %s:\n%s", scenario, path, diffExposition(g, w))
		}
	}
}

// diffExposition lists the families and samples on which got and want
// disagree, one per line.
func diffExposition(got, want exposition) string {
	var out []string
	for k := range merge(got.Families, want.Families) {
		if g, w := got.Families[k], want.Families[k]; g != w {
			out = append(out, fmt.Sprintf("family %s: got %q, want %q", k, g, w))
		}
	}
	for k := range merge(got.Samples, want.Samples) {
		if g, w := got.Samples[k], want.Samples[k]; g != w {
			out = append(out, fmt.Sprintf("%s: got %v, want %v", k, g, w))
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// merge is the union of two maps' keys.
func merge[V any](a, b map[string]V) map[string]bool {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}
