package tree

import (
	"math/rand"
	"testing"
)

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

// FuzzApplySPR: a move is four node IDs a worker takes off the wire, so
// ApplySPR must take any four. The tree is RandomTree over 4 + shape%24
// taxa from seed, with one leaf removed when shape's top bit is set (so
// some IDs are free slots); each ID maps to -1 … MaxID. Either the move is
// refused and the tree is exactly as it was — Newick with lengths, every
// slot, every node's neighbors in order with their lengths, the edit
// counter — or it is applied, the tree is a valid binary tree whose
// regraft junction has the dissolved node's ID, and Undo gives back the
// Newick with lengths and every slot with the same neighbors at the same
// lengths. The committed corpus (testdata/fuzz/FuzzApplySPR) holds a
// move enumerated by Rearrangements, a regraft onto the joined edge, a
// target inside the pruned subtree (the cherry probe), a target that
// touches the dissolved node, a non-edge target, a prune across a
// non-edge, a leaf as the attachment and a free slot.
func FuzzApplySPR(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, p, s, ta, tb int) {
		tr, err := RandomTree(taxaNames(4+int(shape%24)), rand.New(rand.NewSource(seed)), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if shape&0x80 != 0 {
			if err := tr.RemoveLeaf(int(uint64(seed) % uint64(tr.NumLeaves()))); err != nil {
				t.Fatal(err)
			}
		}
		id := func(x int) int { return int(uint(x)%uint(tr.MaxID()+2)) - 1 }
		mv := SPRMove{P: id(p), S: id(s), TA: id(ta), TB: id(tb)}
		before, unordered, nwk, edits := nodeState(tr, true), nodeState(tr, false), tr.Newick(), tr.Edits()
		u, err := tr.ApplySPR(mv)
		if err != nil {
			if got := nodeState(tr, true); got != before || tr.Newick() != nwk || tr.Edits() != edits {
				t.Fatalf("refused move %+v (%v) changed the tree:\n%s\nwant:\n%s", mv, err, got, before)
			}
			if err := tr.Validate(true); err != nil {
				t.Fatalf("after refused move %+v: %v", mv, err)
			}
			return
		}
		if err := tr.Validate(true); err != nil {
			t.Fatalf("move %+v left an invalid tree: %v", mv, err)
		}
		if u.Mid.ID != mv.P {
			t.Fatalf("move %+v: regraft junction has ID %d", mv, u.Mid.ID)
		}
		u.Undo()
		if got := nodeState(tr, false); got != unordered || tr.Newick() != nwk {
			t.Fatalf("undo of move %+v did not restore the tree:\n%s\nwant:\n%s", mv, got, unordered)
		}
	})
}
