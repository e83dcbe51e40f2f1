package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// TestRearrangementsNNICount checks the paper's (2i-6) count: crossing one
// vertex yields exactly 2n-6 topologically distinct trees for an n-leaf
// binary tree.
func TestRearrangementsNNICount(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{4, 5, 6, 8, 10, 13} {
		tr, err := RandomTree(taxaNames(n), rng, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		count, err := tr.Rearrangements(1, func(view *Tree, c RearrangeCandidate) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if count != 2*n-6 {
			t.Errorf("n=%d: %d distinct extent-1 rearrangements, want %d", n, count, 2*n-6)
		}
	}
}

// TestRearrangementsViewsValid checks every candidate view is a valid
// binary tree over the same leaf set, different from the original.
func TestRearrangementsViewsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tr, _ := RandomTree(taxaNames(8), rng, 0.1)
	origKey := tr.Topology()
	origLeaves := tr.TaxaInTree()
	seen := map[string]bool{}
	_, err := tr.Rearrangements(3, func(view *Tree, c RearrangeCandidate) bool {
		if err := view.Validate(true); err != nil {
			t.Errorf("invalid candidate: %v", err)
			return false
		}
		key := view.Topology()
		if key == origKey {
			t.Error("candidate equals original topology")
		}
		if seen[key] {
			t.Error("duplicate candidate delivered")
		}
		seen[key] = true
		leaves := view.TaxaInTree()
		if len(leaves) != len(origLeaves) {
			t.Error("candidate changed the leaf set")
		}
		if c.Distance < 1 || c.Distance > 3 {
			t.Errorf("candidate distance %d outside [1,3]", c.Distance)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no candidates generated")
	}
}

// TestRearrangementsRestoreTree checks the enumeration leaves the tree
// exactly as it found it (topology and branch lengths).
func TestRearrangementsRestoreTree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	tr, _ := RandomTree(taxaNames(9), rng, 0.1)
	want := tr.Newick()
	if _, err := tr.Rearrangements(2, func(view *Tree, c RearrangeCandidate) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := tr.Newick(); got != want {
		t.Errorf("tree changed by enumeration:\n%s\n%s", want, got)
	}
	if err := tr.Validate(true); err != nil {
		t.Error(err)
	}
}

// TestRearrangementsExtentMonotone: larger extents can only reach more
// topologies.
func TestRearrangementsExtentMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		tr, err := RandomTree(taxaNames(n), rng, 0.1)
		if err != nil {
			return false
		}
		prev := 0
		for extent := 1; extent <= 4; extent++ {
			count, err := tr.Rearrangements(extent, func(*Tree, RearrangeCandidate) bool { return true })
			if err != nil || count < prev {
				return false
			}
			prev = count
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRearrangementsEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tr, _ := RandomTree(taxaNames(8), rng, 0.1)
	calls := 0
	count, err := tr.Rearrangements(2, func(*Tree, RearrangeCandidate) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || count != 3 {
		t.Errorf("early stop: calls=%d count=%d, want 3", calls, count)
	}
	if err := tr.Validate(true); err != nil {
		t.Errorf("tree invalid after early stop: %v", err)
	}
}

func TestRearrangementsSmallTrees(t *testing.T) {
	tr, _ := Triple(taxaNames(3), 0, 1, 2)
	count, err := tr.Rearrangements(1, func(*Tree, RearrangeCandidate) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Errorf("3-leaf tree gave %d rearrangements, want 0", count)
	}
	if _, err := tr.Rearrangements(0, nil); err == nil {
		t.Error("extent 0 should fail")
	}
}

func TestInsertionEdgesCount(t *testing.T) {
	// Adding the i-th taxon to a tree with i-1 leaves offers 2i-5 places.
	rng := rand.New(rand.NewSource(99))
	for _, i := range []int{4, 5, 8, 12} {
		tr, _ := RandomTree(taxaNames(i-1), rng, 0.1)
		if got := len(tr.InsertionEdges()); got != 2*i-5 {
			t.Errorf("i=%d: %d insertion edges, want %d", i, got, 2*i-5)
		}
	}
}

// TestInsertionsDistinctTopologies: the 2i-5 insertion points give 2i-5
// pairwise distinct topologies.
func TestInsertionsDistinctTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr, _ := RandomTree(taxaNames(7), rng, 0.1) // uses taxa 0..6 of 7
	names := taxaNames(8)
	tr7, _ := RandomTree(names[:7], rng, 0.1)
	_ = tr
	// Rebuild over the 8-taxon name set so taxon 7 can be inserted.
	tr8 := New(names)
	base, err := ParseNewick(tr7.Newick(), names[:7])
	if err != nil {
		t.Fatal(err)
	}
	_ = base
	// Simpler: grow a tree over 8 names with 7 taxa inserted.
	tr8, _ = Triple(names, 0, 1, 2)
	for i := 3; i < 7; i++ {
		e := tr8.Edges()[rng.Intn(len(tr8.Edges()))]
		if _, err := tr8.InsertLeaf(i, e); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, e := range tr8.InsertionEdges() {
		cand := tr8.Clone()
		ca := cand.Nodes[e.A.ID]
		cb := cand.Nodes[e.B.ID]
		if _, err := cand.InsertLeaf(7, Edge{ca, cb}); err != nil {
			t.Fatal(err)
		}
		key := cand.Topology()
		if seen[key] {
			t.Errorf("duplicate insertion topology at edge %d-%d", e.A.ID, e.B.ID)
		}
		seen[key] = true
	}
	if len(seen) != 2*8-5 {
		t.Errorf("%d distinct insertion topologies, want %d", len(seen), 2*8-5)
	}
}

// rearrangementMovesByString is the enumeration as it was when it
// de-duplicated candidates by their rendered Topology() string, kept as
// the reference for the byte-code key: same prune order, same targets,
// same undo, only the key differs.
func rearrangementMovesByString(t *Tree, extent int) ([]SPRMove, error) {
	seen := map[string]bool{t.Topology(): true}
	type directed struct{ p, s int }
	var moves []directed
	for _, n := range t.Nodes {
		if n == nil || n.Leaf() {
			continue
		}
		for _, m := range n.Nbr {
			moves = append(moves, directed{n.ID, m.ID})
		}
	}
	var out []SPRMove
	for _, mv := range moves {
		pr := t.prune(t.Nodes[mv.p], t.Nodes[mv.s])
		for _, tg := range edgesWithin(pr.joined, extent) {
			l := tg.e.Length()
			mid := pr.regraft(tg.e)
			if key := t.Topology(); !seen[key] {
				seen[key] = true
				out = append(out, SPRMove{P: mv.p, S: mv.s, TA: tg.e.A.ID, TB: tg.e.B.ID})
			}
			pr.unregraft(mid, tg.e, l)
		}
		pr.restore()
	}
	return out, nil
}

// TestRearrangementsMatchStringKeyedEnumeration: de-duplicating by the
// canonical byte code visits exactly the candidates, in exactly the
// order, that de-duplicating by Topology() did — so task IDs and
// tie-breaks downstream do not move — for extents 1-5 on random trees of
// 4-40 taxa, and leaves the tree (lengths included) as it found it.
func TestRearrangementsMatchStringKeyedEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 40; i++ {
		n := 4 + rng.Intn(37)
		tr, err := RandomTree(taxaNames(n), rng, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			// A zero-length branch: regrafting onto it splits it into
			// default halves, which the undo must not leave behind.
			e := tr.Edges()[rng.Intn(2*n-3)]
			SetLen(e.A, e.B, 0)
		}
		before := tr.Newick()
		for extent := 1; extent <= 5; extent++ {
			want, err := rearrangementMovesByString(tr.Clone(), extent)
			if err != nil {
				t.Fatal(err)
			}
			var got []SPRMove
			count, err := tr.Rearrangements(extent, func(_ *Tree, c RearrangeCandidate) bool {
				got = append(got, c.Move())
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != len(got) || len(got) != len(want) {
				t.Fatalf("tree %d (%d taxa) extent %d: %d candidates (count %d), reference %d", i, n, extent, len(got), count, len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("tree %d (%d taxa) extent %d: candidate %d is %+v, reference %+v", i, n, extent, j, got[j], want[j])
				}
			}
			if after := tr.Newick(); after != before {
				t.Fatalf("tree %d extent %d: enumeration changed the tree:\n%s\n%s", i, extent, before, after)
			}
		}
	}
}

// nodeState renders every slot of t: each live node's ID, taxon and
// neighbors with the bits of their lengths, in neighbor order when
// ordered is set and by neighbor ID otherwise.
func nodeState(t *Tree, ordered bool) string {
	var b strings.Builder
	for id, n := range t.Nodes {
		if n == nil {
			fmt.Fprintf(&b, "%d: free\n", id)
			continue
		}
		nbrs := make([]string, len(n.Nbr))
		for i, m := range n.Nbr {
			nbrs[i] = fmt.Sprintf("%d:%x", m.ID, math.Float64bits(n.Len[i]))
		}
		if !ordered {
			sort.Strings(nbrs)
		}
		fmt.Fprintf(&b, "%d: taxon %d %v\n", n.ID, n.Taxon, nbrs)
	}
	return b.String()
}

// TestApplySPRRefusesTargetInPrunedSubtree: a move whose target lies in
// the subtree it prunes — the move a worker might be handed, never one
// the enumeration makes — is an error, and the tree is left exactly as
// it was. Every such move on an 8-taxon tree, from pruning a cherry to
// the longest subtree.
func TestApplySPRRefusesTargetInPrunedSubtree(t *testing.T) {
	tr, err := RandomTree(taxaNames(8), rand.New(rand.NewSource(3)), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	before, nwk := nodeState(tr, true), tr.Newick()
	var subtree func(n, parent *Node, out []Edge) []Edge
	subtree = func(n, parent *Node, out []Edge) []Edge {
		for _, c := range n.Nbr {
			if c != parent {
				out = subtree(c, n, append(out, Edge{n, c}))
			}
		}
		return out
	}
	moves := 0
	for _, p := range tr.Nodes {
		if p.Leaf() {
			continue
		}
		for _, s := range append([]*Node(nil), p.Nbr...) {
			for _, e := range subtree(s, p, nil) {
				for _, mv := range []SPRMove{{P: p.ID, S: s.ID, TA: e.A.ID, TB: e.B.ID}, {P: p.ID, S: s.ID, TA: e.B.ID, TB: e.A.ID}} {
					moves++
					if _, err := tr.ApplySPR(mv); err == nil {
						t.Fatalf("move %+v regrafts onto its own subtree, and ApplySPR took it", mv)
					}
					if got := nodeState(tr, true); got != before || tr.Newick() != nwk {
						t.Fatalf("refused move %+v changed the tree:\n%s\nwant:\n%s", mv, got, before)
					}
					if err := tr.Validate(true); err != nil {
						t.Fatalf("after refused move %+v: %v", mv, err)
					}
				}
			}
		}
	}
	if moves == 0 {
		t.Fatal("no move regrafts into its own subtree")
	}
}
