package main

import (
	"errors"
	"io"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// studyFlags are the flags a study may read, each with a value to set it to.
var studyFlags = map[string]string{"seed": "3", "jumbles": "1", "procs": "1,4", "extent": "1", "taxa": "8", "sites": "100"}

// TestUnreadFlagsAreRefused: for every study, each flag it does not read
// is a usage error naming the study and the flag, and every flag it
// claims to read is one of the command's.
func TestUnreadFlagsAreRefused(t *testing.T) {
	for _, s := range experiments.Studies {
		for _, name := range s.Reads {
			if _, ok := studyFlags[name]; !ok {
				t.Errorf("%s reads -%s, which is no flag of the command", s.Name, name)
			}
		}
		for name, v := range studyFlags {
			if slices.Contains(s.Reads, name) {
				continue
			}
			err := run([]string{"-exp", s.Name, "-" + name, v}, io.Discard)
			var usage usageError
			if !errors.As(err, &usage) || !strings.Contains(err.Error(), "-exp "+s.Name+" ") || !strings.Contains(err.Error(), "-"+name) {
				t.Errorf("-exp %s -%s %s: error %v, want a usage error naming both", s.Name, name, v, err)
			}
		}
	}
}

// TestProcsIsTheAxis: a study that reads -procs prints exactly the
// processor columns asked for, past its own axis.
func TestProcsIsTheAxis(t *testing.T) {
	for _, c := range []struct{ args, header string }{
		{"-exp falloff -procs 1,64 -jumbles 1", "| dataset, efficiency | P=64 |"},
		{"-exp extent -procs 1,16 -jumbles 1", "| dataset, speedup | P=16 |"},
	} {
		var out strings.Builder
		if err := run(strings.Fields(c.args), &out); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		if !strings.Contains(out.String(), "\n"+c.header+"\n") || strings.Count(out.String(), "P=") != 1 {
			t.Errorf("%s printed:\n%s", c.args, out.String())
		}
	}
}

// TestAllRunsTheTable: -exp all runs every study of the table, in its
// order (calibrate included), and takes any flag some study reads.
func TestAllRunsTheTable(t *testing.T) {
	var out strings.Builder
	args := []string{"-exp", "all"}
	for name, v := range studyFlags {
		args = append(args, "-"+name, v)
	}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var ran, want []string
	for _, m := range regexp.MustCompile(`(?m)^==== (\S+) ====$`).FindAllStringSubmatch(out.String(), -1) {
		ran = append(ran, m[1])
	}
	for _, s := range experiments.Studies {
		want = append(want, s.Name)
	}
	if !slices.Equal(ran, want) || !slices.Contains(ran, "calibrate") {
		t.Errorf("-exp all ran %v, the table is %v", ran, want)
	}
}

func TestUnknownExperimentIsAUsageError(t *testing.T) {
	var usage usageError
	if err := run([]string{"-exp", "fig5"}, io.Discard); !errors.As(err, &usage) {
		t.Errorf("-exp fig5: %v", err)
	}
}
