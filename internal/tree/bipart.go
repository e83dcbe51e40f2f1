package tree

import (
	"encoding/hex"
	"fmt"
	"math"
)

// Bipartition analysis. Every internal edge of an unrooted tree splits the
// taxon set in two; the multiset of these splits determines the topology
// uniquely, underlies the Robinson-Foulds distance, and drives majority
// rule consensus (paper §4: determining a consensus tree across random
// orderings).

// Split is a bipartition of the taxon set, normalized so the side NOT
// containing the tree's smallest taxon (taxon 0 in a complete tree) is
// stored.
type Split struct {
	bits []uint64
	n    int // total taxa
}

// newSplit builds a normalized split from a member bitset.
func newSplit(bits []uint64, n int) Split {
	s := Split{bits: bits, n: n}
	if s.Contains(0) {
		for i := range s.bits {
			s.bits[i] = ^s.bits[i]
		}
		// Clear bits beyond n.
		if rem := n % 64; rem != 0 {
			s.bits[len(s.bits)-1] &= (1 << uint(rem)) - 1
		}
	}
	return s
}

// Contains reports whether taxon i is in the stored side.
func (s Split) Contains(i int) bool {
	return s.bits[i/64]&(1<<(uint(i)%64)) != 0
}

// Size returns the number of taxa on the stored side.
func (s Split) Size() int {
	c := 0
	for _, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// N returns the total number of taxa the split is over.
func (s Split) N() int { return s.n }

// Trivial reports whether the split separates fewer than two taxa from the
// rest (leaf edges induce trivial splits).
func (s Split) Trivial() bool {
	k := s.Size()
	return k < 2 || k > s.n-2
}

// Key returns a canonical string identity for the split.
func (s Split) Key() string {
	b := make([]byte, 8*len(s.bits))
	for i, w := range s.bits {
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(w >> (8 * uint(j)))
		}
	}
	return hex.EncodeToString(b)
}

// Members returns the sorted taxon indices on the stored side.
func (s Split) Members() []int {
	var out []int
	for i := 0; i < s.n; i++ {
		if s.Contains(i) {
			out = append(out, i)
		}
	}
	return out
}

// CompatibleWith reports whether two splits over the same taxon set can
// coexist in one tree: one of the four intersections of their sides must
// be empty. Both splits are stored on the side excluding taxon 0, so they
// are compatible iff they are nested or disjoint.
func (s Split) CompatibleWith(o Split) bool {
	if s.n != o.n {
		return false
	}
	interEmpty, sMinusO, oMinusS := true, true, true
	for i := range s.bits {
		a, b := s.bits[i], o.bits[i]
		if a&b != 0 {
			interEmpty = false
		}
		if a&^b != 0 {
			sMinusO = false
		}
		if b&^a != 0 {
			oMinusS = false
		}
	}
	// Neither side contains taxon 0, so the union never covers all taxa;
	// compatibility reduces to disjoint or nested.
	return interEmpty || sMinusO || oMinusS
}

// Splits returns the nontrivial splits induced by the tree's internal
// edges, keyed canonically. The tree may be multifurcating.
func (t *Tree) Splits() map[string]Split {
	out := make(map[string]Split)
	t.walkSplits(func(n0, parent *Node, bits []uint64) {
		if n0.Leaf() || parent.Leaf() {
			return
		}
		if sp := newSplit(append([]uint64(nil), bits...), len(t.Taxa)); !sp.Trivial() {
			out[sp.Key()] = sp
		}
	})
	return out
}

// walkSplits calls visit for every edge, in post-order from the leaf with
// the smallest taxon, with the taxa on the side of the edge away from
// that leaf. No side then holds that taxon, so an edge has one key
// whichever way the tree is rooted — also in a tree over part of the
// taxon set, where complementing against all taxa would not be. bits
// belongs to the walk; visit copies what it keeps.
func (t *Tree) walkSplits(visit func(n0, parent *Node, bits []uint64)) {
	words := (len(t.Taxa) + 63) / 64
	var below func(n0, parent *Node) []uint64
	below = func(n0, parent *Node) []uint64 {
		bits := make([]uint64, words)
		if n0.Leaf() {
			bits[n0.Taxon/64] |= 1 << (uint(n0.Taxon) % 64)
		}
		for _, m := range n0.Nbr {
			if m == parent {
				continue
			}
			sub := below(m, n0)
			for i := range bits {
				bits[i] |= sub[i]
			}
		}
		if parent != nil {
			visit(n0, parent, bits)
		}
		return bits
	}
	if anchor := t.minLeaf(); anchor != nil {
		below(anchor, nil)
	}
}

// RobinsonFoulds returns the symmetric-difference distance between the
// nontrivial split sets of two trees over the same taxon set, and the
// normalized distance in [0,1] (0 for identical topologies).
func RobinsonFoulds(a, b *Tree) (int, float64, error) {
	if len(a.Taxa) != len(b.Taxa) {
		return 0, 0, fmt.Errorf("tree: RF over different taxon sets (%d vs %d taxa)", len(a.Taxa), len(b.Taxa))
	}
	sa, sb := a.Splits(), b.Splits()
	diff := 0
	for k := range sa {
		if _, ok := sb[k]; !ok {
			diff++
		}
	}
	for k := range sb {
		if _, ok := sa[k]; !ok {
			diff++
		}
	}
	denom := len(sa) + len(sb)
	norm := 0.0
	if denom > 0 {
		norm = float64(diff) / float64(denom)
	}
	return diff, norm, nil
}

// splitLengths returns every split (including trivial leaf splits) with
// its branch length.
func (t *Tree) splitLengths() map[string]float64 {
	out := map[string]float64{}
	t.walkSplits(func(n0, parent *Node, bits []uint64) {
		out[newSplit(append([]uint64(nil), bits...), len(t.Taxa)).Key()] += n0.LenTo(parent)
	})
	return out
}

// BranchScore returns the Kuhner-Felsenstein branch score distance
// between two trees over the same taxon set: the square root of the
// summed squared differences of branch lengths over all splits (a split
// absent from a tree contributes length 0). Unlike Robinson-Foulds it
// weighs how much the trees disagree, not just whether they do.
func BranchScore(a, b *Tree) (float64, error) {
	if len(a.Taxa) != len(b.Taxa) {
		return 0, fmt.Errorf("tree: branch score over different taxon sets (%d vs %d taxa)", len(a.Taxa), len(b.Taxa))
	}
	la, lb := a.splitLengths(), b.splitLengths()
	sum := 0.0
	for k, va := range la {
		d := va - lb[k]
		sum += d * d
	}
	for k, vb := range lb {
		if _, ok := la[k]; !ok {
			sum += vb * vb
		}
	}
	return math.Sqrt(sum), nil
}

// SameTopology reports whether two trees over the same taxon set have
// identical unrooted topologies.
func SameTopology(a, b *Tree) bool {
	d, _, err := RobinsonFoulds(a, b)
	if err != nil {
		return false
	}
	if d != 0 {
		return false
	}
	// Same splits and same leaf sets imply same topology only when the
	// leaf sets match.
	at, bt := a.TaxaInTree(), b.TaxaInTree()
	if len(at) != len(bt) {
		return false
	}
	for i := range at {
		if at[i] != bt[i] {
			return false
		}
	}
	return true
}
