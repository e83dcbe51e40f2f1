package serve

import (
	"bytes"
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
