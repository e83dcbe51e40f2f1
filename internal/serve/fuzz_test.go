package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseKeyFile: the API-key file is what an operator hands the
// daemon, and a reload re-reads it while the daemon serves. Whatever the
// bytes, parseKeyFile returns an error rather than panicking, and in a
// file it accepts every `<key> <tenant>` line looks up to its tenant. The
// committed corpus (testdata/fuzz/) holds a commented two-tenant file
// with CRLF line ends and tabs, a short key, a duplicate key, a line with
// three fields and a file of comments only.
func FuzzParseKeyFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseKeyFile(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Errorf("error %v with %d keys", err, len(m))
			}
			return
		}
		var a KeyAuth
		a.keys.Store(m)
		lines := 0
		for _, line := range strings.Split(string(data), "\n") {
			text := strings.TrimSpace(line)
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			lines++
			fields := strings.Fields(text)
			if tenant, ok := a.Lookup(fields[0]); !ok || tenant != fields[1] {
				t.Errorf("key %q looks up to %q (%v), want %q", fields[0], tenant, ok, fields[1])
			}
		}
		if lines != len(m) {
			t.Errorf("%d key lines, %d keys", lines, len(m))
		}
	})
}

// FuzzJobSpec: a job's "options" object is what any client may send the
// daemon. Whatever the JSON, prepareSpec over a fixed alignment returns
// an error rather than panicking, and what it accepts is normalized for
// good: its normalized options, marshalled and prepared again, normalize
// to the same JSON bytes and the same result and pod keys, so a job
// resubmitted from its stored spec hits the cache and the pod it did.
// The committed corpus (testdata/fuzz/) holds the empty spec and one per
// model, GTR rates of the wrong length and GTR rates on an HKY85 job,
// negative extents, "precision":"float32", "smooth_mode":"gradient",
// jumbles above MaxJumbles, and an empty gtr_rates list on an F84 job,
// which once keyed apart from the same job without the list.
func FuzzJobSpec(f *testing.F) {
	const alignment = "4 8\na ACGTACGT\nb ACGAACGA\nc CCGTTCGT\nd CCTTACGT\n"
	f.Fuzz(func(t *testing.T, data []byte) {
		var opts JobOptions
		if json.Unmarshal(data, &opts) != nil {
			return
		}
		prep, err := prepareSpec(JobSpec{Alignment: alignment, Options: opts})
		if err != nil {
			return
		}
		norm, err := json.Marshal(prep.Spec.Options)
		if err != nil {
			t.Fatal(err)
		}
		var again JobOptions
		if err := json.Unmarshal(norm, &again); err != nil {
			t.Fatalf("normalized options %s do not unmarshal: %v", norm, err)
		}
		prep2, err := prepareSpec(JobSpec{Alignment: alignment, Options: again})
		if err != nil {
			t.Fatalf("normalized options %s refused: %v", norm, err)
		}
		if norm2, _ := json.Marshal(prep2.Spec.Options); !bytes.Equal(norm2, norm) {
			t.Errorf("options normalize to %s, then to %s", norm, norm2)
		}
		if prep2.ResultKey != prep.ResultKey || prep2.PodKey != prep.PodKey {
			t.Errorf("keys moved when %s was prepared again", norm)
		}
	})
}
