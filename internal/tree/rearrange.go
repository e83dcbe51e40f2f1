package tree

import (
	"encoding/binary"
	"fmt"
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

// RearrangeCandidate is one distinct subtree-regraft move delivered by
// Rearrangements.
type RearrangeCandidate struct {
	// Distance is the number of vertices crossed (1..extent).
	Distance int
	move     SPRMove
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
func (c RearrangeCandidate) Move() SPRMove { return c.move }

// pruned is a subtree cut off its tree and what putting it back takes:
// the subtree root, the edge that replaced its dissolved attachment, the
// lengths that edge's ends had to the attachment, and the subtree's own
// branch length.
type pruned struct {
	t      *Tree
	s      *Node
	joined Edge
	la, lb float64
	ls     float64
}

// prune cuts the subtree at s off its attachment p, an internal node of
// degree 3 adjacent to s, and dissolves p. The tree is whole again only
// after restore, or after a regraft.
func (t *Tree) prune(p, s *Node) pruned {
	r := pruned{t: t, s: s, ls: p.LenTo(s)}
	disconnect(p, s)
	r.joined, r.la, r.lb = t.join(p)
	return r
}

// restore reverses prune: a fresh node splits the joined edge at its old
// lengths and takes the subtree back.
func (r pruned) restore() {
	connect(r.t.split(r.joined.A, r.joined.B, r.la, r.lb), r.s, r.ls)
}

// regraft hangs the subtree on e, split in the middle, by its own branch
// (DefaultBranchLength when that has length 0), and returns the junction.
func (r pruned) regraft(e Edge) *Node {
	ls := r.ls
	if ls <= 0 {
		ls = DefaultBranchLength
	}
	mid := r.t.splitHalves(e)
	connect(mid, r.s, ls)
	return mid
}

// unregraft reverses regraft onto e, which had length l before it.
func (r pruned) unregraft(mid *Node, e Edge, l float64) {
	disconnect(mid, r.s)
	r.t.join(mid)
	SetLen(e.A, e.B, l)
}

// SPRUndo records everything needed to reverse an ApplySPR exactly:
// after Undo the tree has the original topology with the original node
// IDs in the original slots, and every branch touched by the apply/undo
// cycle is restored to its pre-move length.
type SPRUndo struct {
	// Mid is the regraft junction node created by the move; callers use
	// it to center local branch optimization on the changed region. It is
	// invalid after Undo.
	Mid *Node
	// Joined is the edge that replaced the dissolved attachment; its
	// endpoints remain valid after Undo.
	Joined    Edge
	pr        pruned
	target    Edge
	targetLen float64
}

// ApplySPR replays a move produced by RearrangeCandidate.Move (or built
// from IDs directly) on t, returning an undo record. The tree must be
// unrooted binary. A move that names a dead node, a P that is not S's
// degree-3 neighbor, or a target that is no edge of the pruned tree — the
// pruned subtree's own edges are not — is refused with the tree
// untouched.
func (t *Tree) ApplySPR(m SPRMove) (*SPRUndo, error) {
	var n [4]*Node
	for i, id := range [4]int{m.P, m.S, m.TA, m.TB} {
		if id < 0 || id >= len(t.Nodes) || t.Nodes[id] == nil {
			return nil, fmt.Errorf("tree: SPR move references dead node %d", id)
		}
		n[i] = t.Nodes[id]
	}
	p, s, ta, tb := n[0], n[1], n[2], n[3]
	if p.Leaf() || p.Degree() != 3 || p.NbrIndex(s) < 0 {
		return nil, fmt.Errorf("tree: SPR prunes %d off %d, not an internal node of degree 3 next to it", m.S, m.P)
	}
	// The pruned tree's edges are the tree's, less p's three and the
	// subtree's, plus the one joining p's other two neighbors.
	var a, b *Node // p's neighbors other than s
	for _, nb := range p.Nbr {
		switch {
		case nb == s:
		case a == nil:
			a = nb
		default:
			b = nb
		}
	}
	switch {
	case (ta == a && tb == b) || (ta == b && tb == a):
	case ta == p || tb == p || ta.NbrIndex(tb) < 0:
		return nil, fmt.Errorf("tree: SPR target %d-%d is not an edge after pruning", m.TA, m.TB)
	case holds(s, p, ta):
		return nil, fmt.Errorf("tree: SPR target %d-%d lies in the subtree pruned at %d", m.TA, m.TB, m.S)
	}
	u := &SPRUndo{pr: t.prune(p, s), target: Edge{ta, tb}}
	u.Joined = u.pr.joined
	u.targetLen = ta.LenTo(tb)
	u.Mid = u.pr.regraft(u.target)
	return u, nil
}

// holds reports whether x is in the subtree at n entered from parent.
func holds(n, parent, x *Node) bool {
	if n == x {
		return true
	}
	for _, c := range n.Nbr {
		if c != parent && holds(c, n, x) {
			return true
		}
	}
	return false
}

// Undo reverses the move. Branch lengths changed by optimization between
// Apply and Undo are restored on the edges the move itself touched; the
// caller is responsible for any other edges it modified.
func (u *SPRUndo) Undo() {
	u.pr.unregraft(u.Mid, u.target, u.targetLen)
	u.pr.restore()
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
		pr := t.prune(t.Nodes[mv.p], t.Nodes[mv.s])
		stop := false
		for _, tg := range edgesWithin(pr.joined, extent) {
			l := tg.e.Length()
			mid := pr.regraft(tg.e)
			// Looking a []byte up as string(k) does not allocate; only a
			// topology seen for the first time is copied into the map.
			if k := key.of(t); !seen[string(k)] {
				seen[string(k)] = true
				count++
				stop = !fn(t, RearrangeCandidate{Distance: tg.dist, move: SPRMove{P: mv.p, S: mv.s, TA: tg.e.A.ID, TB: tg.e.B.ID}})
			}
			pr.unregraft(mid, tg.e, l)
			if stop {
				break
			}
		}
		pr.restore()
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
	subtreeMins(k.min, root.Nbr[0], root)
	k.emit(root.Nbr[0], root)
	return k.buf
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
