// Package treetest generates seeded random edit scripts over unrooted
// binary trees for property tests. Every step is one edit a search
// performs on its trees, or one a caller is allowed to make, drawn from a
// math/rand source, so a failing script replays exactly from its seed.
package treetest

import (
	"math/rand"
	"strconv"

	"repro/internal/tree"
)

// Op is one kind of generated edit.
type Op int

const (
	// OpSetLen sets a random edge to a fresh length through tree.SetLen.
	OpSetLen Op = iota
	// OpRestoreLen sets a random edge to a fresh length and back to the
	// length it had: the counter moves, the lengths do not.
	OpRestoreLen
	// OpSPR applies a random SPR move and keeps it.
	OpSPR
	// OpSPRUndo applies a random SPR move and undoes it, which recreates
	// the dissolved attachment as a new node object under its old ID.
	OpSPRUndo
	// OpRemoveLeaf removes a random leaf (while more than four remain).
	OpRemoveLeaf
	// OpInsertLeaf re-inserts a removed taxon on a random edge.
	OpInsertLeaf
	// OpDirectLen writes a random edge's length on both sides directly,
	// behind the tree package's back; the caller must notify its caches
	// (Edit.Edge names the edge).
	OpDirectLen
	// OpPermute shuffles every node's neighbor list (with its lengths):
	// the same tree, listed in another order.
	OpPermute
	// OpClone continues on a Clone of the current tree.
	OpClone
	// OpReparse continues on a parse of the current tree's Newick; a
	// second parse of the same string, with the same node IDs and edit
	// count, is kept as a view.
	OpReparse
	// OpSwitch continues on one of the recent views (trees the script
	// moved away from, possibly stale).
	OpSwitch
	numOps
)

var opNames = [numOps]string{"setlen", "restore-len", "spr", "spr-undo", "remove-leaf",
	"insert-leaf", "direct-len", "permute", "clone", "reparse", "switch"}

func (o Op) String() string { return opNames[o] }

// maxViews bounds how many earlier trees OpSwitch chooses from.
const maxViews = 4

// Edit describes one applied step: its kind and, for the length edits,
// the edge it changed.
type Edit struct {
	Op   Op
	Edge tree.Edge
}

// Gen applies random edits to T. OpClone, OpReparse and OpSwitch replace
// T; the others mutate it in place.
type Gen struct {
	Rng *rand.Rand
	T   *tree.Tree

	views []*tree.Tree
}

// New starts a script on a random tree over taxa (at least 5).
func New(rng *rand.Rand, taxa []string) (*Gen, error) {
	t, err := tree.RandomTree(taxa, rng, 0.15)
	if err != nil {
		return nil, err
	}
	return &Gen{Rng: rng, T: t}, nil
}

// Removed lists the taxa currently out of T, the ones insertion scoring
// may place.
func (g *Gen) Removed() []int {
	var out []int
	for i := range g.T.Taxa {
		if g.T.LeafByTaxon(i) == nil {
			out = append(out, i)
		}
	}
	return out
}

// Edge returns a uniformly random edge of T.
func (g *Gen) Edge() tree.Edge {
	edges := g.T.Edges()
	return edges[g.Rng.Intn(len(edges))]
}

// Length returns a fresh random branch length.
func (g *Gen) Length() float64 { return g.Rng.ExpFloat64()*0.15 + 1e-6 }

// Move returns a random SPR move of T crossing one or two vertices, or
// false when T has none.
func (g *Gen) Move() (tree.SPRMove, bool) {
	var moves []tree.SPRMove
	if _, err := g.T.Rearrangements(1+g.Rng.Intn(2), func(_ *tree.Tree, c tree.RearrangeCandidate) bool {
		moves = append(moves, c.Move())
		return true
	}); err != nil || len(moves) == 0 {
		return tree.SPRMove{}, false
	}
	return moves[g.Rng.Intn(len(moves))], true
}

// Step applies one random edit and reports it. An edit whose
// precondition does not hold (no removed taxon to insert, too few leaves
// to remove) falls back to OpSetLen.
func (g *Gen) Step() (Edit, error) {
	op := Op(g.Rng.Intn(int(numOps)))
	removed := g.Removed()
	switch {
	case op == OpRemoveLeaf && g.T.NumLeaves() <= 4,
		op == OpInsertLeaf && len(removed) == 0,
		op == OpSwitch && len(g.views) == 0:
		op = OpSetLen
	}
	ed := Edit{Op: op}
	switch op {
	case OpSetLen:
		ed.Edge = g.Edge()
		tree.SetLen(ed.Edge.A, ed.Edge.B, g.Length())
	case OpRestoreLen:
		ed.Edge = g.Edge()
		v := ed.Edge.Length()
		tree.SetLen(ed.Edge.A, ed.Edge.B, g.Length())
		tree.SetLen(ed.Edge.A, ed.Edge.B, v)
	case OpSPR, OpSPRUndo:
		mv, ok := g.Move()
		if !ok {
			break
		}
		u, err := g.T.ApplySPR(mv)
		if err != nil {
			return ed, err
		}
		if op == OpSPRUndo {
			u.Undo()
		}
	case OpRemoveLeaf:
		present := g.T.TaxaInTree()
		taxon := present[g.Rng.Intn(len(present))]
		if err := g.T.RemoveLeaf(taxon); err != nil {
			return ed, err
		}
	case OpInsertLeaf:
		taxon := removed[g.Rng.Intn(len(removed))]
		if _, err := g.T.InsertLeaf(taxon, g.Edge()); err != nil {
			return ed, err
		}
	case OpDirectLen:
		ed.Edge = g.Edge()
		v := g.Length()
		ed.Edge.A.Len[ed.Edge.A.NbrIndex(ed.Edge.B)] = v
		ed.Edge.B.Len[ed.Edge.B.NbrIndex(ed.Edge.A)] = v
	case OpPermute:
		PermuteNbrs(g.T, g.Rng)
	case OpClone:
		g.replace(g.T.Clone())
	case OpReparse:
		s := g.T.Newick()
		a, err := tree.ParseNewick(s, g.T.Taxa)
		if err != nil {
			return ed, err
		}
		b, err := tree.ParseNewick(s, g.T.Taxa)
		if err != nil {
			return ed, err
		}
		g.views = append(g.views, b)
		g.replace(a)
	case OpSwitch:
		i := g.Rng.Intn(len(g.views))
		g.views[i], g.T = g.T, g.views[i]
	}
	return ed, nil
}

// replace makes t the current tree and keeps the old one as a view.
func (g *Gen) replace(t *tree.Tree) {
	g.views = append(g.views, g.T)
	if len(g.views) > maxViews {
		g.views = g.views[len(g.views)-maxViews:]
	}
	g.T = t
}

// PermuteNbrs shuffles every node's neighbor list together with its
// lengths, in place: the same tree, listed in another order.
func PermuteNbrs(t *tree.Tree, rng *rand.Rand) {
	for _, n := range t.Nodes {
		if n == nil {
			continue
		}
		rng.Shuffle(len(n.Nbr), func(i, j int) {
			n.Nbr[i], n.Nbr[j] = n.Nbr[j], n.Nbr[i]
			n.Len[i], n.Len[j] = n.Len[j], n.Len[i]
		})
	}
}

// Reroot returns t re-read from a Newick rendering hung from a random
// internal node, with exact lengths: the same unrooted tree under other
// node IDs and neighbor orders. Taxon labels are written unquoted.
func Reroot(t *tree.Tree, rng *rand.Rand) (*tree.Tree, error) {
	var inner []*tree.Node
	for _, n := range t.Nodes {
		if n != nil && !n.Leaf() {
			inner = append(inner, n)
		}
	}
	var buf []byte
	var write func(n, parent *tree.Node)
	write = func(n, parent *tree.Node) {
		if n.Leaf() {
			buf = append(buf, t.Taxa[n.Taxon]...)
			return
		}
		buf = append(buf, '(')
		first := true
		for i, m := range n.Nbr {
			if m == parent {
				continue
			}
			if !first {
				buf = append(buf, ',')
			}
			first = false
			write(m, n)
			buf = append(buf, ':')
			buf = strconv.AppendFloat(buf, n.Len[i], 'g', -1, 64)
		}
		buf = append(buf, ')')
	}
	write(inner[rng.Intn(len(inner))], nil)
	return tree.ParseNewick(string(append(buf, ';')), t.Taxa)
}
