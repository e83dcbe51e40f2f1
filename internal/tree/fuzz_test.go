package tree

import "testing"

// fuzzTaxa is the taxon set every fuzzed Newick string is parsed over;
// two labels need quoting.
var fuzzTaxa = []string{"a", "b", "c", "d", "e", "f", "g h", "i'j"}

// FuzzParseNewick: a Newick string is what a user hands -usertrees and
// what a restart manifest holds. Whatever the string, ParseNewick returns
// an error rather than panicking, and what it accepts is stable: the
// tree's Newick() rendering re-parses to a tree of the same topology
// whose rendering is the same string. The committed corpus
// (testdata/fuzz/) holds a valid unrooted tree with lengths, a rooted
// one, a truncated one, one naming a taxon twice, one with odd
// whitespace and a bracket comment, one with quoted labels over part of
// the taxon set, a two-leaf tree and nested one-member groups.
func FuzzParseNewick(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseNewick(s, fuzzTaxa)
		if err != nil {
			if tr != nil {
				t.Errorf("error %v with a tree", err)
			}
			return
		}
		nwk := tr.Newick()
		again, err := ParseNewick(nwk, fuzzTaxa)
		if err != nil {
			t.Fatalf("rendering %q of %q does not re-parse: %v", nwk, s, err)
		}
		if got := again.Newick(); got != nwk {
			t.Errorf("rendering is not stable: %q became %q", nwk, got)
		}
		if !SameTopology(tr, again) {
			t.Errorf("topology changed across render/re-parse: %q became %q", s, nwk)
		}
	})
}
