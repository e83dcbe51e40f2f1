package tree_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tree"
	"repro/internal/tree/treetest"
)

// TestTopoKeyProperty: over generated edit scripts, the rearrangement
// search's de-duplication key is an exact topology identity — equal keys
// exactly when the unrooted topologies (and leaf sets) are equal, by both
// the split-set comparison and the canonical Topology() string — and it
// does not move when the same tree is re-read from another root or its
// neighbor lists are permuted.
func TestTopoKeyProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		taxa := make([]string, 6+seed%4)
		for i := range taxa {
			taxa[i] = fmt.Sprintf("t%d", i)
		}
		g, err := treetest.New(rng, taxa)
		if err != nil {
			t.Fatal(err)
		}
		type snap struct {
			key, topo string
			tr        *tree.Tree
		}
		var seen []snap
		for step := 0; step < 60; step++ {
			ed, err := g.Step()
			if err != nil {
				t.Fatalf("seed %d step %d (%v): %v", seed, step, ed.Op, err)
			}
			cur := snap{key: tree.TopoKey(g.T), topo: g.T.Topology(), tr: g.T.Clone()}
			alt, err := treetest.Reroot(g.T, rng)
			if err != nil {
				t.Fatalf("seed %d step %d: reroot: %v", seed, step, err)
			}
			treetest.PermuteNbrs(alt, rng)
			if k := tree.TopoKey(alt); k != cur.key {
				t.Fatalf("seed %d step %d (%v): key moved under re-rooting and Nbr permutation:\n%s\n%s",
					seed, step, ed.Op, g.T.Topology(), alt.Topology())
			}
			for _, s := range seen {
				same := tree.SameTopology(s.tr, cur.tr)
				if (s.key == cur.key) != same || (s.topo == cur.topo) != same {
					t.Fatalf("seed %d step %d (%v): key equal %v, Topology equal %v, same topology %v:\n%s\n%s",
						seed, step, ed.Op, s.key == cur.key, s.topo == cur.topo, same, s.topo, cur.topo)
				}
			}
			seen = append(seen, cur)
		}
	}
}
