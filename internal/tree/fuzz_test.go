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
// the taxon set, a two-leaf tree, nested one-member groups, an unquoted
// label holding a quote, a quoted internal label holding a comma and a
// bracket comment holding a comma.
//
// Label discovery is the same grammar: NewickLabels succeeds exactly when
// ParseNewick over its labels does, and the labels are the leaves of
// every tree ParseNewick reads from the string.
func FuzzParseNewick(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		labels, lerr := NewickLabels(s)
		if lerr == nil {
			own, err := ParseNewick(s, labels)
			if err != nil {
				t.Fatalf("NewickLabels(%q) = %q, but ParseNewick over them fails: %v", s, labels, err)
			}
			if own.NumLeaves() != len(labels) {
				t.Fatalf("NewickLabels(%q) = %q, but the tree has %d leaves", s, labels, own.NumLeaves())
			}
		}
		tr, err := ParseNewick(s, fuzzTaxa)
		if err != nil {
			if tr != nil {
				t.Errorf("error %v with a tree", err)
			}
			return
		}
		if lerr != nil {
			t.Fatalf("ParseNewick accepts %q, NewickLabels refuses it: %v", s, lerr)
		}
		leaves := map[string]bool{}
		for _, i := range tr.TaxaInTree() {
			leaves[fuzzTaxa[i]] = true
		}
		for _, l := range labels {
			if !leaves[l] {
				t.Fatalf("NewickLabels(%q) = %q; %q is no leaf of the parsed tree", s, labels, l)
			}
		}
		if len(leaves) != len(labels) {
			t.Fatalf("NewickLabels(%q) = %q, but the parsed tree has %d leaves", s, labels, len(leaves))
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
