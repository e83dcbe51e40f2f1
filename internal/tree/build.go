package tree

import (
	"fmt"
	"math/rand"
)

// DefaultBranchLength is the starting length for newly created branches,
// matching fastDNAml's initial guess before Newton optimization.
const DefaultBranchLength = 0.1

// Triple builds the unique unrooted topology over three taxa: one internal
// node joined to three leaves, all branches at DefaultBranchLength.
func Triple(taxa []string, a, b, c int) (*Tree, error) {
	t := New(taxa)
	for _, i := range []int{a, b, c} {
		if i < 0 || i >= len(taxa) {
			return nil, fmt.Errorf("tree: taxon index %d out of range", i)
		}
	}
	if a == b || a == c || b == c {
		return nil, fmt.Errorf("tree: triple taxa must be distinct (%d,%d,%d)", a, b, c)
	}
	center := t.newNode(-1)
	for _, i := range []int{a, b, c} {
		leaf := t.newNode(i)
		connect(center, leaf, DefaultBranchLength)
	}
	return t, nil
}

// GraftPair builds a two-leaf tree: taxa a and b joined by a single edge
// of the given length. Pairwise distance estimation uses it; it is not a
// valid search tree (the search starts from a Triple).
func (t *Tree) GraftPair(a, b int, length float64) (Edge, error) {
	if t.NumNodes() != 0 {
		return Edge{}, fmt.Errorf("tree: GraftPair on a non-empty tree")
	}
	for _, i := range []int{a, b} {
		if i < 0 || i >= len(t.Taxa) {
			return Edge{}, fmt.Errorf("tree: taxon index %d out of range", i)
		}
	}
	if a == b {
		return Edge{}, fmt.Errorf("tree: GraftPair of taxon %d with itself", a)
	}
	if length <= 0 {
		length = DefaultBranchLength
	}
	la := t.newNode(a)
	lb := t.newNode(b)
	connect(la, lb, length)
	return Edge{la, lb}, nil
}

// InsertLeaf splits edge e with a new internal node and attaches a new
// leaf for taxon i to it. The split conserves e's length (half on each
// side); the new leaf branch starts at DefaultBranchLength. It returns the
// new leaf; the new internal node is its single neighbor.
func (t *Tree) InsertLeaf(i int, e Edge) (*Node, error) {
	if i < 0 || i >= len(t.Taxa) {
		return nil, fmt.Errorf("tree: taxon index %d out of range", i)
	}
	if t.LeafByTaxon(i) != nil {
		return nil, fmt.Errorf("tree: taxon %d already in tree", i)
	}
	if e.A.NbrIndex(e.B) < 0 {
		return nil, fmt.Errorf("tree: insertion edge %d-%d does not exist", e.A.ID, e.B.ID)
	}
	mid := t.splitHalves(e)
	leaf := t.newNode(i)
	connect(mid, leaf, DefaultBranchLength)
	return leaf, nil
}

// splitHalves splits e in the middle: half its length on each side, or
// DefaultBranchLength/2 when e has length 0.
func (t *Tree) splitHalves(e Edge) *Node {
	half := e.Length() / 2
	if half <= 0 {
		half = DefaultBranchLength / 2
	}
	return t.split(e.A, e.B, half, half)
}

// RemoveLeaf deletes the leaf carrying taxon i, dissolving its attachment
// node: the attachment's two remaining neighbors are joined by an edge
// whose length is the sum of the two dissolved branches. The tree must
// remain a valid unrooted binary tree (at least 4 leaves before removal).
func (t *Tree) RemoveLeaf(i int) error {
	leaf := t.LeafByTaxon(i)
	if leaf == nil {
		return fmt.Errorf("tree: taxon %d not in tree", i)
	}
	if t.NumLeaves() <= 3 {
		return fmt.Errorf("tree: cannot remove a leaf from a 3-leaf tree")
	}
	att := leaf.Nbr[0]
	if att.Degree() != 3 {
		return fmt.Errorf("tree: attachment node %d has degree %d", att.ID, att.Degree())
	}
	disconnect(leaf, att)
	t.releaseNode(leaf)
	t.join(att)
	return nil
}

// RandomTree builds a uniformly random-addition unrooted binary tree over
// all taxa, with branch lengths drawn exponentially with the given mean.
// It is used by the sequence simulator and by tests.
func RandomTree(taxa []string, rng *rand.Rand, meanLen float64) (*Tree, error) {
	if len(taxa) < 3 {
		return nil, fmt.Errorf("tree: need at least 3 taxa, have %d", len(taxa))
	}
	if meanLen <= 0 {
		meanLen = DefaultBranchLength
	}
	order := rng.Perm(len(taxa))
	t, err := Triple(taxa, order[0], order[1], order[2])
	if err != nil {
		return nil, err
	}
	el := func() float64 { return rng.ExpFloat64() * meanLen }
	for _, n := range t.Nodes {
		if n == nil {
			continue
		}
		for i := range n.Len {
			if n.ID < n.Nbr[i].ID {
				SetLen(n, n.Nbr[i], el())
			}
		}
	}
	for _, i := range order[3:] {
		edges := t.Edges()
		e := edges[rng.Intn(len(edges))]
		leaf, err := t.InsertLeaf(i, e)
		if err != nil {
			return nil, err
		}
		SetLen(leaf, leaf.Nbr[0], el())
	}
	return t, nil
}
