// Package viewer reproduces the substance of the paper's 3D tree viewer
// (§4): planar layouts of unrooted phylogenies, arrangement of many trees
// along a comparison/time axis, tracing of selected taxa across trees,
// and subtree pivoting that canonicalizes branch order so that trees
// which only *look* different (reversed branch orderings) render
// identically. The display surface is SVG and plain text rather than Open
// Inventor; the geometry and tree logic are the viewer's substance.
package viewer

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tree"
)

// Point2 is a planar coordinate.
type Point2 struct{ X, Y float64 }

// Layout is a planar embedding of one tree: a position for every node.
type Layout struct {
	// Tree is the laid-out tree.
	Tree *tree.Tree
	// Pos maps node IDs to coordinates.
	Pos map[int]Point2
}

// EqualAngle computes the classic equal-angle layout of an unrooted
// tree: each subtree receives an angular wedge proportional to its leaf
// count, and every branch is drawn at its length in the wedge's bisecting
// direction. Branch lengths below a small minimum render at the minimum
// so zero-length branches stay visible.
func EqualAngle(t *tree.Tree) (*Layout, error) {
	if err := t.Validate(false); err != nil {
		return nil, err
	}
	lay := &Layout{Tree: t, Pos: map[int]Point2{}}
	root := t.AnyNode()
	if leavesBelowCount(root, nil) == 0 {
		return nil, fmt.Errorf("viewer: tree has no leaves")
	}
	const minLen = 1e-4
	lay.Pos[root.ID] = Point2{0, 0}
	var place func(n, parent *tree.Node, from Point2, lo, hi float64)
	place = func(n, parent *tree.Node, from Point2, lo, hi float64) {
		below := leavesBelowCount(n, parent)
		if below == 0 {
			return
		}
		angle := lo
		for _, child := range n.Nbr {
			if child == parent {
				continue
			}
			span := (hi - lo) * float64(leavesBelowCount(child, n)) / float64(below)
			mid := angle + span/2
			ln := child.LenTo(n)
			if ln < minLen {
				ln = minLen
			}
			p := Point2{from.X + ln*math.Cos(mid), from.Y + ln*math.Sin(mid)}
			lay.Pos[child.ID] = p
			place(child, n, p, angle, angle+span)
			angle += span
		}
	}
	place(root, nil, Point2{0, 0}, 0, 2*math.Pi)
	return lay, nil
}

// leavesBelowCount counts leaves in the subtree at n away from parent.
// A leaf used as the traversal root counts itself.
func leavesBelowCount(n, parent *tree.Node) int {
	c := 0
	if n.Leaf() {
		c = 1
	}
	for _, m := range n.Nbr {
		if m != parent {
			c += leavesBelowCount(m, n)
		}
	}
	return c
}

// PivotCanonical reorders every node's neighbor list so subtrees appear
// in order of their smallest contained taxon — the viewer's "pivot a
// subtree in order to visually distinguish solutions that are
// topologically different from those that only appear different because
// of reversed branch orderings" (§4). Two trees with the same topology
// render identically after pivoting.
func PivotCanonical(t *tree.Tree) {
	root := t.AnyNode()
	if root == nil {
		return
	}
	minTaxon := map[[2]int]int{}
	var annotate func(n, parent *tree.Node) int
	annotate = func(n, parent *tree.Node) int {
		min := math.MaxInt32
		if n.Leaf() {
			min = n.Taxon
		}
		for _, m := range n.Nbr {
			if m == parent {
				continue
			}
			if v := annotate(m, n); v < min {
				min = v
			}
		}
		minTaxon[dirKey(n, parent)] = min
		return min
	}
	annotate(root, nil)
	// Reorder each node's neighbors: the parent direction first (stable
	// anchor), then children by ascending minimum taxon.
	var reorder func(n, parent *tree.Node)
	reorder = func(n, parent *tree.Node) {
		type entry struct {
			node *tree.Node
			ln   float64
			min  int
		}
		var entries []entry
		for i, m := range n.Nbr {
			min := -1 // parent direction sorts first
			if m != parent {
				min = minTaxon[dirKey(m, n)]
			}
			entries = append(entries, entry{m, n.Len[i], min})
		}
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].min < entries[j].min })
		for i, e := range entries {
			n.Nbr[i] = e.node
			n.Len[i] = e.ln
		}
		for _, m := range n.Nbr {
			if m != parent {
				reorder(m, n)
			}
		}
	}
	reorder(root, nil)
}

// dirKey identifies the directed edge parent->n (parent nil = whole tree
// at the traversal root).
func dirKey(n, parent *tree.Node) [2]int {
	if parent == nil {
		return [2]int{n.ID, -1}
	}
	return [2]int{n.ID, parent.ID}
}
