package tree

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Candidate topology enumeration.
//
// Step 3 of the fastDNAml algorithm adds taxon i to every topologically
// distinct place in the current tree: each of its 2(i-1)-3 = 2i-5 edges.
// Steps 4 and 5 perform local rearrangements: every subtree is moved
// across one or more internal vertices, up to a user-set extent; crossing
// a single vertex yields the 2i-6 nearest-neighbor-interchange topologies.
// The master enumerates these candidates and dispatches each to a worker
// (paper Fig 2), so enumeration must be deterministic and must not count
// duplicate topologies twice.

// InsertionEdges returns the edges at which a new taxon can be inserted:
// every edge of the tree, 2i-5 of them for a tree with i-1 leaves... and
// deterministic order. (For a tree with m leaves there are 2m-3 edges.)
func (t *Tree) InsertionEdges() []Edge { return t.Edges() }

// RearrangeCandidate describes one subtree-regraft move: the subtree
// rooted at Subtree (as seen from its attachment) is pruned and reattached
// onto TargetEdge, which lies within the configured extent of the original
// attachment.
type RearrangeCandidate struct {
	// Subtree is the root node of the moved subtree.
	Subtree *Node
	// Attach is the (dissolved) attachment's surviving neighbor pair,
	// recorded for diagnostics.
	Attach Edge
	// Target is the edge the subtree was regrafted onto, in the
	// pre-mutation tree's node identities.
	Target Edge
	// Distance is the number of vertices crossed (1..extent).
	Distance int
	// PruneAt is the node ID of the dissolved attachment vertex in the
	// pre-mutation tree, so the move can be replayed with ApplySPR on
	// another copy of the same tree (node IDs are preserved by parsing
	// the same Newick string or by Clone).
	PruneAt int
}

// SPRMove identifies one subtree-prune-regraft move by node IDs in the
// unmutated tree: the subtree rooted at S (seen from its attachment P) is
// pruned, P is dissolved, and S is regrafted onto the edge (TA, TB).
// Because it references only IDs, a move enumerated on one copy of a tree
// can be applied to any other copy with the same node numbering, which is
// how search workers replay the master's candidate moves against their
// own cached base tree.
type SPRMove struct {
	P, S, TA, TB int
}

// Move returns c as an ID-based move replayable with ApplySPR.
func (c RearrangeCandidate) Move() SPRMove {
	return SPRMove{P: c.PruneAt, S: c.Subtree.ID, TA: c.Target.A.ID, TB: c.Target.B.ID}
}

// SPRUndo records everything needed to reverse an ApplySPR exactly:
// after Undo the tree has the original topology with the original node
// IDs in the original slots, and every branch touched by the apply/undo
// cycle is restored to its pre-move length.
type SPRUndo struct {
	t *Tree
	// Mid is the regraft junction node created by the move; callers use
	// it to center local branch optimization on the changed region. It is
	// invalid after Undo.
	Mid *Node
	// Joined is the edge that replaced the dissolved attachment; its
	// endpoints remain valid after Undo.
	Joined    Edge
	s         *Node
	ta, tb    *Node
	targetLen float64
	others    []*Node
	lens      []float64
	lps       float64
}

// ApplySPR replays a move produced by RearrangeCandidate.Move (or built
// from IDs directly) on t, returning an undo record. The tree must be
// unrooted binary and the IDs must describe a live prune/regraft pair.
func (t *Tree) ApplySPR(m SPRMove) (*SPRUndo, error) {
	node := func(id int) (*Node, error) {
		if id < 0 || id >= len(t.Nodes) || t.Nodes[id] == nil {
			return nil, fmt.Errorf("tree: SPR move references dead node %d", id)
		}
		return t.Nodes[id], nil
	}
	p, err := node(m.P)
	if err != nil {
		return nil, err
	}
	s, err := node(m.S)
	if err != nil {
		return nil, err
	}
	ta, err := node(m.TA)
	if err != nil {
		return nil, err
	}
	tb, err := node(m.TB)
	if err != nil {
		return nil, err
	}
	u := &SPRUndo{t: t, s: s, ta: ta, tb: tb}
	for i, nb := range p.Nbr {
		if nb != s {
			u.others = append(u.others, nb)
			u.lens = append(u.lens, p.Len[i])
		}
	}
	u.lps = p.LenTo(s)
	u.Joined, err = t.PruneSubtree(p, s)
	if err != nil {
		return nil, err
	}
	if ta.NbrIndex(tb) < 0 {
		// Re-split the joined edge before reporting the error so the
		// tree is left intact.
		undoPrune(t, u.Joined, s, u.others, u.lens, u.lps)
		return nil, fmt.Errorf("tree: SPR target %d-%d is not an edge after pruning", m.TA, m.TB)
	}
	u.targetLen = ta.LenTo(tb)
	u.Mid, err = t.RegraftSubtree(s, Edge{ta, tb}, u.lps)
	if err != nil {
		undoPrune(t, u.Joined, s, u.others, u.lens, u.lps)
		return nil, err
	}
	return u, nil
}

// Undo reverses the move. Branch lengths changed by optimization between
// Apply and Undo are restored on the edges the move itself touched; the
// caller is responsible for any other edges it modified.
func (u *SPRUndo) Undo() {
	undoRegraft(u.t, u.Mid, u.s)
	SetLen(u.ta, u.tb, u.targetLen)
	undoPrune(u.t, u.Joined, u.s, u.others, u.lens, u.lps)
}

// Rearrangements enumerates the topologically distinct trees reachable by
// moving any subtree across at most extent internal vertices, the
// paper's steps 4-5. For each distinct candidate it calls fn with a
// mutated view of the tree (valid only during the call; the mutation is
// undone afterwards) and the candidate description. fn returning false
// stops the enumeration early. It returns the number of distinct
// candidates visited.
//
// The tree must be unrooted binary with at least 4 leaves; extent must be
// at least 1. Candidates whose topology equals the input topology are
// skipped, as are duplicates reachable by several moves.
func (t *Tree) Rearrangements(extent int, fn func(view *Tree, cand RearrangeCandidate) bool) (int, error) {
	if extent < 1 {
		return 0, fmt.Errorf("tree: rearrangement extent %d, must be >= 1", extent)
	}
	if err := t.Validate(true); err != nil {
		return 0, err
	}
	if t.NumLeaves() < 4 {
		return 0, nil // a 3-leaf tree has a unique topology
	}
	var key topoKey
	seen := map[string]bool{string(key.of(t)): true}
	count := 0

	// Enumerate directed edges p->s with p internal: pruning s's subtree
	// dissolves p. Snapshot the edges as ID pairs: the mutate/undo cycle
	// releases and recreates the attachment node, so pointers captured
	// here would go stale, but undo restores the same ID in the same
	// slot with the same adjacency.
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

	for _, mv := range moves {
		p, s := t.Nodes[mv.p], t.Nodes[mv.s]
		// Record the dissolved geometry for undo.
		var others []*Node
		var lens []float64
		for i, nb := range p.Nbr {
			if nb != s {
				others = append(others, nb)
				lens = append(lens, p.Len[i])
			}
		}
		lps := p.LenTo(s)
		joined, err := t.PruneSubtree(p, s)
		if err != nil {
			return count, err
		}

		// BFS over edges of the remaining tree from the joined edge.
		targets := edgesWithin(joined, extent)

		stop := false
		for _, tg := range targets {
			tl := tg.e.Length()
			mid, err := t.RegraftSubtree(s, tg.e, lps)
			if err != nil {
				return count, err
			}
			// Looking a []byte up as string(k) does not allocate; only a
			// topology seen for the first time is copied into the map.
			if k := key.of(t); !seen[string(k)] {
				seen[string(k)] = true
				count++
				if !fn(t, RearrangeCandidate{Subtree: s, Attach: joined, Target: tg.e, Distance: tg.dist, PruneAt: mv.p}) {
					stop = true
				}
			}
			// Undo the regraft: dissolve mid, restoring tg.e exactly (a
			// zero-length edge was split into two default halves).
			undoRegraft(t, mid, s)
			SetLen(tg.e.A, tg.e.B, tl)
			if stop {
				break
			}
		}

		// Undo the prune: split the joined edge with a fresh attachment
		// node restoring the original lengths.
		undoPrune(t, joined, s, others, lens, lps)
		if stop {
			break
		}
	}
	return count, nil
}

// topoKey builds the canonical byte code of an unrooted binary tree's
// topology in a buffer it reuses from call to call: the tree is hung
// from its smallest-taxon leaf and written in preorder, an internal node
// as 0 followed by its two subtrees (the one holding the smaller taxon
// first), a leaf as its taxon + 1, each as a uvarint. With every internal
// node binary the preorder sequence determines the tree, so two trees
// over the same taxa have equal codes exactly when Topology() would give
// them equal strings — an exact key, with no rendering and no collisions
// to argue about.
type topoKey struct {
	buf []byte
	min []int // smallest taxon below each node, by node ID
}

// of returns t's code; the slice is valid until the next call.
func (k *topoKey) of(t *Tree) []byte {
	if len(k.min) < len(t.Nodes) {
		k.min = make([]int, len(t.Nodes))
	}
	k.buf = k.buf[:0]
	root := t.minLeaf()
	k.mins(root.Nbr[0], root)
	k.emit(root.Nbr[0], root)
	return k.buf
}

func (k *topoKey) mins(n, parent *Node) int {
	m := n.Taxon
	if !n.Leaf() {
		m = math.MaxInt
		for _, c := range n.Nbr {
			if c != parent {
				if cm := k.mins(c, n); cm < m {
					m = cm
				}
			}
		}
	}
	k.min[n.ID] = m
	return m
}

func (k *topoKey) emit(n, parent *Node) {
	if n.Leaf() {
		k.buf = binary.AppendUvarint(k.buf, uint64(n.Taxon)+1)
		return
	}
	k.buf = append(k.buf, 0)
	var first, second *Node
	for _, c := range n.Nbr {
		switch {
		case c == parent:
		case first == nil:
			first = c
		default:
			second = c
		}
	}
	if k.min[second.ID] < k.min[first.ID] {
		first, second = second, first
	}
	k.emit(first, n)
	k.emit(second, n)
}

// edgeTarget is a regraft target with its vertex-crossing distance.
type edgeTarget struct {
	e    Edge
	dist int
}

// edgesWithin lists the edges reachable from start by crossing at most
// extent vertices, excluding start itself, in deterministic order.
func edgesWithin(start Edge, extent int) []edgeTarget {
	type dirEdge struct {
		from, to *Node
		dist     int
	}
	var out []edgeTarget
	seen := map[[2]int]bool{key2(start.A, start.B): true}
	frontier := []dirEdge{
		{start.A, start.B, 0}, // expand across B
		{start.B, start.A, 0}, // expand across A
	}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		if cur.dist >= extent {
			continue
		}
		across := cur.to
		for _, nb := range across.Nbr {
			if nb == cur.from {
				continue
			}
			k := key2(across, nb)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, edgeTarget{Edge{across, nb}, cur.dist + 1})
			frontier = append(frontier, dirEdge{across, nb, cur.dist + 1})
		}
	}
	return out
}

func key2(a, b *Node) [2]int {
	if a.ID < b.ID {
		return [2]int{a.ID, b.ID}
	}
	return [2]int{b.ID, a.ID}
}

// undoRegraft dissolves the attachment node mid created by RegraftSubtree,
// restoring the split edge with its pre-split length.
func undoRegraft(t *Tree, mid, s *Node) {
	disconnect(mid, s)
	a, b := mid.Nbr[0], mid.Nbr[1]
	la, lb := mid.Len[0], mid.Len[1]
	disconnect(mid, a)
	disconnect(mid, b)
	connect(a, b, la+lb)
	t.releaseNode(mid)
}

// undoPrune reverses PruneSubtree: it splits the joined edge with a new
// attachment node connected to others[0] and others[1] at their original
// lengths and reattaches s at length lps.
func undoPrune(t *Tree, joined Edge, s *Node, others []*Node, lens []float64, lps float64) {
	mid := t.newNode(-1)
	disconnect(joined.A, joined.B)
	// joined.A/B correspond to others[0]/others[1] in some order.
	if joined.A == others[0] {
		connect(others[0], mid, lens[0])
		connect(mid, others[1], lens[1])
	} else {
		connect(others[1], mid, lens[1])
		connect(mid, others[0], lens[0])
	}
	connect(mid, s, lps)
}
