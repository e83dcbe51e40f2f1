// Package tree implements the unrooted phylogenetic trees at the heart of
// fastDNAml: topology construction and editing (taxon insertion, subtree
// pruning and regrafting), Newick input/output, enumeration of the
// candidate topologies examined by the search (insertion points and local
// rearrangements crossing a bounded number of vertices), bipartition
// analysis (Robinson–Foulds distance, canonical topology keys), majority
// rule consensus, and the (2n−5)!! count of distinct topologies.
//
// Trees are unrooted and, during search, strictly bifurcating: every leaf
// has exactly one neighbor and every internal node exactly three. Consensus
// trees may be multifurcating. Branch lengths are stored symmetrically on
// both directions of an edge and are kept in expected substitutions per
// site.
package tree

import (
	"fmt"
	"sort"
)

// Node is a vertex of an unrooted tree. Leaves carry a taxon index;
// internal nodes have Taxon == -1.
type Node struct {
	// ID is the node's stable index into its Tree's Nodes slice.
	ID int
	// Taxon is the taxon index for leaves, -1 for internal nodes.
	Taxon int
	// Nbr lists the adjacent nodes (1 for a leaf, 3 for a bifurcating
	// internal node, possibly more in consensus trees).
	Nbr []*Node
	// Len[i] is the length of the branch to Nbr[i], in expected
	// substitutions per site. The reverse direction stores the same value.
	Len []float64

	// t is the tree the node belongs to; edits made through the node
	// count on that tree's edit counter.
	t *Tree
}

// Tree returns the tree the node was allocated in.
func (n *Node) Tree() *Tree { return n.t }

// Leaf reports whether n is a leaf.
func (n *Node) Leaf() bool { return n.Taxon >= 0 }

// Degree returns the number of neighbors.
func (n *Node) Degree() int { return len(n.Nbr) }

// NbrIndex returns the index of m in n's neighbor list, or -1.
func (n *Node) NbrIndex(m *Node) int {
	for i, x := range n.Nbr {
		if x == m {
			return i
		}
	}
	return -1
}

// LenTo returns the branch length from n to its neighbor m.
// It panics if m is not a neighbor.
func (n *Node) LenTo(m *Node) float64 {
	i := n.NbrIndex(m)
	if i < 0 {
		panic(fmt.Sprintf("tree: node %d is not adjacent to node %d", m.ID, n.ID))
	}
	return n.Len[i]
}

// Tree is an unrooted phylogenetic tree over a fixed taxon set.
type Tree struct {
	// Taxa holds the taxon labels; taxon index i corresponds to Taxa[i].
	// Not every taxon need be present in the tree (the search adds them
	// incrementally).
	Taxa []string
	// Nodes holds every node ever allocated; entries may be nil after
	// pruning. Node.ID indexes this slice.
	Nodes []*Node
	// free lists the IDs of nil Nodes entries available for reuse.
	free []int
	// edits counts changes made through the package (see Edits).
	edits uint64
}

// Edits returns the tree's edit counter. It increases whenever an edge is
// added or removed or SetLen changes a branch length, and never decreases;
// likelihood engines compare it to decide whether the cached vectors they
// last proved valid for this tree may be trusted without re-checking.
// Callers that mutate Nbr or Len directly must notify dependent caches
// themselves.
func (t *Tree) Edits() uint64 { return t.edits }

// New creates an empty tree over the given taxon labels.
func New(taxa []string) *Tree {
	cp := make([]string, len(taxa))
	copy(cp, taxa)
	return &Tree{Taxa: cp}
}

// newNode allocates a node, reusing a freed slot when available.
func (t *Tree) newNode(taxon int) *Node {
	n := &Node{Taxon: taxon, t: t}
	if k := len(t.free); k > 0 {
		n.ID = t.free[k-1]
		t.free = t.free[:k-1]
		t.Nodes[n.ID] = n
	} else {
		n.ID = len(t.Nodes)
		t.Nodes = append(t.Nodes, n)
	}
	return n
}

// releaseNode returns a node's slot to the free list.
func (t *Tree) releaseNode(n *Node) {
	t.Nodes[n.ID] = nil
	t.free = append(t.free, n.ID)
	n.Nbr = nil
	n.Len = nil
}

// MaxID returns one more than the largest node ID in use; likelihood
// engines size their per-node arrays with it.
func (t *Tree) MaxID() int { return len(t.Nodes) }

// connect links a and b with a branch of length v.
func connect(a, b *Node, v float64) {
	a.Nbr = append(a.Nbr, b)
	a.Len = append(a.Len, v)
	b.Nbr = append(b.Nbr, a)
	b.Len = append(b.Len, v)
	a.t.edits++
}

// disconnect removes the edge between a and b.
func disconnect(a, b *Node) {
	ai := a.NbrIndex(b)
	bi := b.NbrIndex(a)
	if ai < 0 || bi < 0 {
		panic("tree: disconnect of non-adjacent nodes")
	}
	a.Nbr = append(a.Nbr[:ai], a.Nbr[ai+1:]...)
	a.Len = append(a.Len[:ai], a.Len[ai+1:]...)
	b.Nbr = append(b.Nbr[:bi], b.Nbr[bi+1:]...)
	b.Len = append(b.Len[:bi], b.Len[bi+1:]...)
	a.t.edits++
}

// split puts a fresh internal node on the edge a–b, at length la from a
// and lb from b, and returns it. Every insertion, regraft and undone
// prune is a split.
func (t *Tree) split(a, b *Node, la, lb float64) *Node {
	mid := t.newNode(-1)
	disconnect(a, b)
	connect(a, mid, la)
	connect(mid, b, lb)
	return mid
}

// join dissolves the degree-2 node n: its two neighbors are joined by an
// edge whose length is the sum of the two it replaces, and n's slot is
// freed. It returns the new edge and its ends' old lengths to n. Every
// removal, prune and undone regraft is a join.
func (t *Tree) join(n *Node) (e Edge, la, lb float64) {
	a, b := n.Nbr[0], n.Nbr[1]
	la, lb = n.Len[0], n.Len[1]
	disconnect(n, a)
	disconnect(n, b)
	connect(a, b, la+lb)
	t.releaseNode(n)
	return Edge{a, b}, la, lb
}

// SetLen sets the length of the edge between a and b (both directions).
// The tree's edit counter is bumped only when the stored value actually
// changes, so restoring a length to its previous value after a trial move
// keeps dependent CLV caches warm.
func SetLen(a, b *Node, v float64) {
	ai := a.NbrIndex(b)
	bi := b.NbrIndex(a)
	if ai < 0 || bi < 0 {
		panic("tree: SetLen on non-adjacent nodes")
	}
	if a.Len[ai] == v && b.Len[bi] == v {
		return
	}
	a.Len[ai] = v
	b.Len[bi] = v
	a.t.edits++
}

// AnyNode returns an arbitrary node of the tree (an internal one when any
// exists), or nil for an empty tree.
func (t *Tree) AnyNode() *Node {
	var leaf *Node
	for _, n := range t.Nodes {
		if n == nil {
			continue
		}
		if !n.Leaf() {
			return n
		}
		if leaf == nil {
			leaf = n
		}
	}
	return leaf
}

// LeafByTaxon returns the leaf carrying taxon index i, or nil.
func (t *Tree) LeafByTaxon(i int) *Node {
	for _, n := range t.Nodes {
		if n != nil && n.Taxon == i {
			return n
		}
	}
	return nil
}

// NumLeaves counts the leaves currently in the tree.
func (t *Tree) NumLeaves() int {
	k := 0
	for _, n := range t.Nodes {
		if n != nil && n.Leaf() {
			k++
		}
	}
	return k
}

// NumNodes counts the live nodes.
func (t *Tree) NumNodes() int {
	k := 0
	for _, n := range t.Nodes {
		if n != nil {
			k++
		}
	}
	return k
}

// Edge is an undirected edge identified by its two endpoints.
type Edge struct{ A, B *Node }

// Length returns the branch length of e.
func (e Edge) Length() float64 { return e.A.LenTo(e.B) }

// Edges returns every edge of the tree exactly once, ordered by the
// smaller endpoint ID then the larger, so enumeration is deterministic.
func (t *Tree) Edges() []Edge {
	var out []Edge
	for _, n := range t.Nodes {
		if n == nil {
			continue
		}
		for _, m := range n.Nbr {
			if n.ID < m.ID {
				out = append(out, Edge{n, m})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A.ID != out[j].A.ID {
			return out[i].A.ID < out[j].A.ID
		}
		return out[i].B.ID < out[j].B.ID
	})
	return out
}

// FirstEdge returns the edge Edges() would list first — the edge
// minimizing (A.ID, B.ID) — without building and sorting the full list,
// so hot evaluation paths can pick their root edge allocation-free.
func (t *Tree) FirstEdge() (Edge, bool) {
	// Nodes is indexed by ID, so the scan runs in ascending ID order. The
	// first live node with a higher-ID neighbor owns the minimal A.ID (an
	// earlier node would have contributed no edge as the smaller
	// endpoint), and its smallest higher-ID neighbor is the minimal B.
	for _, n := range t.Nodes {
		if n == nil {
			continue
		}
		var best *Node
		for _, m := range n.Nbr {
			if m.ID > n.ID && (best == nil || m.ID < best.ID) {
				best = m
			}
		}
		if best != nil {
			return Edge{n, best}, true
		}
	}
	return Edge{}, false
}

// InternalEdges returns the edges whose both endpoints are internal nodes.
func (t *Tree) InternalEdges() []Edge {
	var out []Edge
	for _, e := range t.Edges() {
		if !e.A.Leaf() && !e.B.Leaf() {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks structural invariants. When binary is true, it requires
// a strictly bifurcating unrooted tree (leaves degree 1, internal degree 3)
// with at least three leaves.
func (t *Tree) Validate(binary bool) error {
	live := 0
	leaves := 0
	for id, n := range t.Nodes {
		if n == nil {
			continue
		}
		live++
		if n.ID != id {
			return fmt.Errorf("tree: node at slot %d has ID %d", id, n.ID)
		}
		if len(n.Nbr) != len(n.Len) {
			return fmt.Errorf("tree: node %d has %d neighbors but %d lengths", id, len(n.Nbr), len(n.Len))
		}
		if n.Leaf() {
			leaves++
			if n.Taxon >= len(t.Taxa) {
				return fmt.Errorf("tree: leaf %d has taxon %d outside taxon set", id, n.Taxon)
			}
			if binary && n.Degree() != 1 {
				return fmt.Errorf("tree: leaf %d has degree %d", id, n.Degree())
			}
		} else if binary && n.Degree() != 3 {
			return fmt.Errorf("tree: internal node %d has degree %d", id, n.Degree())
		}
		for i, m := range n.Nbr {
			if m == nil || t.Nodes[m.ID] != m {
				return fmt.Errorf("tree: node %d has a dangling neighbor", id)
			}
			j := m.NbrIndex(n)
			if j < 0 {
				return fmt.Errorf("tree: edge %d-%d is not symmetric", id, m.ID)
			}
			if n.Len[i] != m.Len[j] {
				return fmt.Errorf("tree: edge %d-%d has asymmetric lengths %g vs %g", id, m.ID, n.Len[i], m.Len[j])
			}
			if n.Len[i] < 0 {
				return fmt.Errorf("tree: edge %d-%d has negative length", id, m.ID)
			}
		}
	}
	if live == 0 {
		return fmt.Errorf("tree: empty tree")
	}
	if binary && leaves < 3 {
		return fmt.Errorf("tree: binary tree needs at least 3 leaves, has %d", leaves)
	}
	// Connectivity: walk from any node.
	seen := make(map[int]bool, live)
	stack := []*Node{t.AnyNode()}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n.ID] {
			continue
		}
		seen[n.ID] = true
		stack = append(stack, n.Nbr...)
	}
	if len(seen) != live {
		return fmt.Errorf("tree: disconnected (%d of %d nodes reachable)", len(seen), live)
	}
	// Taxa must be distinct.
	taxSeen := make(map[int]bool)
	for _, n := range t.Nodes {
		if n != nil && n.Leaf() {
			if taxSeen[n.Taxon] {
				return fmt.Errorf("tree: taxon %d appears twice", n.Taxon)
			}
			taxSeen[n.Taxon] = true
		}
	}
	return nil
}

// Clone returns a deep copy of the tree. Node IDs and the edit counter
// are preserved; the copy's nodes belong to the copy.
func (t *Tree) Clone() *Tree {
	out := &Tree{
		Taxa:  append([]string(nil), t.Taxa...),
		Nodes: make([]*Node, len(t.Nodes)),
		free:  append([]int(nil), t.free...),
		edits: t.edits,
	}
	for id, n := range t.Nodes {
		if n == nil {
			continue
		}
		out.Nodes[id] = &Node{ID: id, Taxon: n.Taxon, t: out}
	}
	for id, n := range t.Nodes {
		if n == nil {
			continue
		}
		cn := out.Nodes[id]
		cn.Nbr = make([]*Node, len(n.Nbr))
		cn.Len = append([]float64(nil), n.Len...)
		for i, m := range n.Nbr {
			cn.Nbr[i] = out.Nodes[m.ID]
		}
	}
	return out
}

// TaxaInTree returns the sorted taxon indices present as leaves.
func (t *Tree) TaxaInTree() []int {
	var out []int
	for _, n := range t.Nodes {
		if n != nil && n.Leaf() {
			out = append(out, n.Taxon)
		}
	}
	sort.Ints(out)
	return out
}
