package tree

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func taxaNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("t%02d", i)
	}
	return out
}

func TestTripleShape(t *testing.T) {
	tr, err := Triple(taxaNames(5), 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 3 || tr.NumNodes() != 4 {
		t.Errorf("triple has %d leaves, %d nodes", tr.NumLeaves(), tr.NumNodes())
	}
	if got := len(tr.Edges()); got != 3 {
		t.Errorf("triple has %d edges, want 3", got)
	}
}

func TestTripleErrors(t *testing.T) {
	if _, err := Triple(taxaNames(3), 0, 0, 1); err == nil {
		t.Error("duplicate taxa should fail")
	}
	if _, err := Triple(taxaNames(3), 0, 1, 7); err == nil {
		t.Error("out-of-range taxon should fail")
	}
}

func TestInsertLeafGrowsTree(t *testing.T) {
	tr, _ := Triple(taxaNames(6), 0, 1, 2)
	for i := 3; i < 6; i++ {
		edges := tr.Edges()
		wantEdges := 2*i - 3 // edges of a tree with i leaves
		if len(edges) != wantEdges-2 {
			// before inserting taxon i the tree has i leaves... recompute:
			// tree currently has i leaves? No: it has i leaves after this
			// insert. Before: i-1+? Start 3 leaves. Edges = 2m-3 for m
			// leaves.
			m := tr.NumLeaves()
			if len(edges) != 2*m-3 {
				t.Fatalf("tree with %d leaves has %d edges, want %d", m, len(edges), 2*m-3)
			}
		}
		if _, err := tr.InsertLeaf(i, edges[0]); err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(true); err != nil {
			t.Fatalf("after inserting taxon %d: %v", i, err)
		}
	}
	if tr.NumLeaves() != 6 {
		t.Errorf("NumLeaves = %d, want 6", tr.NumLeaves())
	}
}

func TestInsertLeafErrors(t *testing.T) {
	tr, _ := Triple(taxaNames(5), 0, 1, 2)
	e := tr.Edges()[0]
	if _, err := tr.InsertLeaf(0, e); err == nil {
		t.Error("inserting an existing taxon should fail")
	}
	if _, err := tr.InsertLeaf(9, e); err == nil {
		t.Error("out-of-range taxon should fail")
	}
}

func TestRemoveLeafInvertsInsert(t *testing.T) {
	tr, _ := Triple(taxaNames(5), 0, 1, 2)
	before := tr.Topology()
	e := tr.Edges()[1]
	if _, err := tr.InsertLeaf(3, e); err != nil {
		t.Fatal(err)
	}
	if err := tr.RemoveLeaf(3); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatal(err)
	}
	if tr.Topology() != before {
		t.Errorf("remove did not restore topology:\n%s\n%s", before, tr.Topology())
	}
}

func TestRemoveLeafErrors(t *testing.T) {
	tr, _ := Triple(taxaNames(5), 0, 1, 2)
	if err := tr.RemoveLeaf(0); err == nil {
		t.Error("removing from a 3-leaf tree should fail")
	}
	if err := tr.RemoveLeaf(4); err == nil {
		t.Error("removing an absent taxon should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, err := RandomTree(taxaNames(8), rng, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cp := tr.Clone()
	if cp.Newick() != tr.Newick() {
		t.Fatal("clone differs from original")
	}
	// Mutate the clone; the original must be unaffected.
	e := cp.Edges()[0]
	SetLen(e.A, e.B, 9.9)
	if cp.Newick() == tr.Newick() {
		t.Error("mutating clone changed original (shared storage)")
	}
	if err := tr.Validate(true); err != nil {
		t.Error(err)
	}
}

func TestRandomTreeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{3, 4, 5, 10, 25} {
		tr, err := RandomTree(taxaNames(n), rng, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Validate(true); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		if tr.NumLeaves() != n {
			t.Errorf("n=%d: %d leaves", n, tr.NumLeaves())
		}
	}
	if _, err := RandomTree(taxaNames(2), rng, 0.1); err == nil {
		t.Error("RandomTree with 2 taxa should fail")
	}
}

func TestPruneRegraftRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	tr, _ := RandomTree(taxaNames(9), rng, 0.1)
	want := tr.Newick()
	// Prune an arbitrary leaf subtree and put it back.
	leaf := tr.LeafByTaxon(5)
	pr := tr.prune(leaf.Nbr[0], leaf)
	// The tree is intentionally in a detached state here (the pruned
	// subtree is disconnected), so no validation until the restore.
	pr.restore()
	if err := tr.Validate(true); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	if got := tr.Newick(); got != want {
		t.Errorf("restore did not restore tree:\n%s\n%s", want, got)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, _ := RandomTree(taxaNames(12), rng, 0.1)
	e1 := tr.Edges()
	e2 := tr.Edges()
	if len(e1) != len(e2) {
		t.Fatal("edge count unstable")
	}
	for i := range e1 {
		if e1[i].A != e2[i].A || e1[i].B != e2[i].B {
			t.Fatal("edge order unstable")
		}
	}
	if len(e1) != 2*12-3 {
		t.Errorf("12-leaf tree has %d edges, want 21", len(e1))
	}
}

func TestInternalEdgesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{4, 7, 15} {
		tr, _ := RandomTree(taxaNames(n), rng, 0.1)
		got := len(tr.InternalEdges())
		if got != n-3 {
			t.Errorf("n=%d: %d internal edges, want %d", n, got, n-3)
		}
	}
}

// TestTreeInvariantsQuick grows random trees by insertion and checks
// structural invariants at every step.
func TestTreeInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		tr, err := Triple(taxaNames(n), 0, 1, 2)
		if err != nil {
			return false
		}
		for i := 3; i < n; i++ {
			edges := tr.Edges()
			if len(edges) != 2*tr.NumLeaves()-3 {
				return false
			}
			if _, err := tr.InsertLeaf(i, edges[rng.Intn(len(edges))]); err != nil {
				return false
			}
			if err := tr.Validate(true); err != nil {
				return false
			}
		}
		// Total nodes of an n-leaf unrooted binary tree: 2n-2.
		return tr.NumNodes() == 2*n-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
