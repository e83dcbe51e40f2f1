package tree

import (
	"fmt"
	"sort"
)

// Majority rule consensus (paper §2: "compare the best of the resulting
// trees to determine a consensus tree", citing Jermiin, Olsen & Easteal's
// majority rule consensus of maximum likelihood trees).

// ConsensusResult holds a consensus tree and the support of its splits.
type ConsensusResult struct {
	// Tree is the (possibly multifurcating) consensus topology. Branch
	// lengths on internal edges are the split's support fraction; leaf
	// edges have length 1.
	Tree *Tree
	// Support maps each retained split key to the fraction of input
	// trees containing it.
	Support map[string]float64
	// SplitFreq maps every observed split key to its frequency,
	// including splits below the threshold.
	SplitFreq map[string]float64
}

// SplitSupport is one retained split of a consensus: the fraction of the
// input trees that hold it and the taxa on its smaller side, in taxon
// order.
type SplitSupport struct {
	Support float64
	Taxa    []string
}

// Listing returns the retained splits, strongest first and ties by split
// key, each with the taxa on its smaller side.
func (r *ConsensusResult) Listing() []SplitSupport {
	splits := r.Tree.Splits()
	keys := make([]string, 0, len(r.Support))
	for k := range r.Support {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if fi, fj := r.Support[keys[i]], r.Support[keys[j]]; fi != fj {
			return fi > fj
		}
		return keys[i] < keys[j]
	})
	out := make([]SplitSupport, len(keys))
	for i, k := range keys {
		sp := splits[k]
		small := sp.Size()*2 <= sp.N()
		out[i].Support = r.Support[k]
		for ti := 0; ti < sp.N(); ti++ {
			if sp.Contains(ti) == small {
				out[i].Taxa = append(out[i].Taxa, r.Tree.Taxa[ti])
			}
		}
	}
	return out
}

// MajorityRule computes the majority rule consensus of trees over a shared
// taxon set. threshold is the inclusion fraction in (0.5, 1]; pass 0.5 for
// the strict majority rule (a split is kept when it appears in MORE than
// half the trees). All leaves present in the inputs must cover the same
// taxon set.
func MajorityRule(trees []*Tree, threshold float64) (*ConsensusResult, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("tree: consensus of zero trees")
	}
	if threshold < 0.5 || threshold > 1 {
		return nil, fmt.Errorf("tree: consensus threshold %g outside [0.5, 1]", threshold)
	}
	n := len(trees[0].Taxa)
	ref := trees[0].TaxaInTree()
	for i, tr := range trees {
		if len(tr.Taxa) != n {
			return nil, fmt.Errorf("tree: input %d has %d taxa, want %d", i, len(tr.Taxa), n)
		}
		got := tr.TaxaInTree()
		if len(got) != len(ref) {
			return nil, fmt.Errorf("tree: input %d has %d leaves, want %d", i, len(got), len(ref))
		}
		for j := range got {
			if got[j] != ref[j] {
				return nil, fmt.Errorf("tree: input %d covers a different leaf set", i)
			}
		}
	}

	counts := make(map[string]int)
	splits := make(map[string]Split)
	for _, tr := range trees {
		for k, sp := range tr.Splits() {
			counts[k]++
			splits[k] = sp
		}
	}
	freq := make(map[string]float64, len(counts))
	for k, c := range counts {
		freq[k] = float64(c) / float64(len(trees))
	}

	// Retain splits with frequency strictly above the threshold when
	// threshold == 0.5 (strict majority), or >= threshold otherwise.
	var kept []Split
	support := make(map[string]float64)
	for k, f := range freq {
		keep := f >= threshold
		if threshold == 0.5 {
			keep = f > 0.5
		}
		if keep {
			kept = append(kept, splits[k])
			support[k] = f
		}
	}
	// Majority splits are pairwise compatible by a counting argument, but
	// verify defensively (ties at exactly 0.5 with >= semantics can
	// conflict).
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Size() != kept[j].Size() {
			return kept[i].Size() > kept[j].Size()
		}
		return kept[i].Key() < kept[j].Key()
	})
	for i := 0; i < len(kept); i++ {
		for j := i + 1; j < len(kept); j++ {
			if !kept[i].CompatibleWith(kept[j]) {
				return nil, fmt.Errorf("tree: incompatible splits retained at threshold %g; raise the threshold", threshold)
			}
		}
	}

	ct, err := buildFromSplits(trees[0].Taxa, ref, kept, support)
	if err != nil {
		return nil, err
	}
	return &ConsensusResult{Tree: ct, Support: support, SplitFreq: freq}, nil
}

// buildFromSplits constructs a (possibly multifurcating) tree containing
// exactly the given compatible nontrivial splits. The construction roots
// at taxon ref[0]: each split's stored side (the side excluding taxon 0)
// becomes a cluster; clusters are nested or disjoint, forming a laminar
// family realized as internal nodes.
func buildFromSplits(taxa []string, ref []int, splits []Split, support map[string]float64) (*Tree, error) {
	t := New(taxa)
	root := t.newNode(-1)

	type cluster struct {
		sp   Split
		node *Node
	}
	// Insert clusters largest-first so each finds its parent among the
	// already inserted ones.
	var placed []cluster

	parentOf := func(sp Split) *Node {
		best := root
		bestSize := len(ref) + 1
		for _, c := range placed {
			if contains(c.sp, sp) && c.sp.Size() < bestSize {
				best = c.node
				bestSize = c.sp.Size()
			}
		}
		return best
	}

	for _, sp := range splits {
		parent := parentOf(sp)
		node := t.newNode(-1)
		supp := support[sp.Key()]
		connect(parent, node, supp)
		// Reparent any previously placed clusters contained in sp.
		for _, c := range placed {
			if contains(sp, c.sp) && nbrOf(c.node, parent) {
				l := c.node.LenTo(parent)
				disconnect(c.node, parent)
				connect(node, c.node, l)
			}
		}
		placed = append(placed, cluster{sp, node})
	}

	// Attach leaves: each leaf hangs from the smallest cluster containing
	// it, or the root.
	for _, ti := range ref {
		var best *Node = root
		bestSize := len(ref) + 1
		for _, c := range placed {
			if c.sp.Contains(ti) && c.sp.Size() < bestSize {
				best = c.node
				bestSize = c.sp.Size()
			}
		}
		leaf := t.newNode(ti)
		connect(best, leaf, 1)
	}

	// The root may have degree 2 when a single top-level cluster exists
	// alongside taxon 0's group; dissolve it to keep the tree unrooted.
	if root.Degree() == 2 {
		t.join(root)
	}
	if err := t.Validate(false); err != nil {
		return nil, fmt.Errorf("tree: consensus construction failed: %w", err)
	}
	return t, nil
}

// contains reports whether split a's stored side is a superset of b's.
func contains(a, b Split) bool {
	for i := range a.bits {
		if b.bits[i]&^a.bits[i] != 0 {
			return false
		}
	}
	return true
}

func nbrOf(n, m *Node) bool { return n.NbrIndex(m) >= 0 }
