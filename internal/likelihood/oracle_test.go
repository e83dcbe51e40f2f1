package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
	"repro/internal/tree/treetest"
)

// TestEditScriptMatchesFreshEngine is the cache's generated oracle: one
// engine follows a seeded script of every edit its stamps must notice —
// SetLen (also back to the same value), ApplySPR kept and undone,
// InsertLeaf/RemoveLeaf, a direct Len write with InvalidateEdge, a
// Nbr permutation, switches between a tree, its Clone and re-parses with
// the same node IDs — interleaved with the engine's own work: full and
// restricted OptimizeBranches, a rearrangement task's apply → smooth →
// undo, OptimizeEdge, insertion scoring, InvalidateAll, and the engine
// editing a twin Clone that the tree then follows. After every
// step the engine's LogLikelihood must be bit-equal to a fresh engine's,
// and whatever the engine computed on the way (optimized lengths,
// scores) bit-equal to a fresh engine doing the same on a copy. The
// fresh engine is on the scalar kernels, the engine under test on the
// vector ones where the host has them.
func TestEditScriptMatchesFreshEngine(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ntaxa := 7 + int(seed%4)
		p, _ := mkPatterns(t, randomRows(rng, ntaxa, 90)...)
		classes := []float64{0.4, 1.0, 2.2}
		for i := range p.Rates {
			p.Rates[i] = classes[i%len(classes)]
		}
		m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
		if err != nil {
			t.Fatal(err)
		}
		// The fresh engine runs the scalar kernels, so on an AVX2 host
		// every comparison also pins the vector kernels to them.
		fresh := func() *CachedEngine {
			e, err := New(m, p)
			if err != nil {
				t.Fatal(err)
			}
			e.bc2 = nil
			return e
		}
		eng, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := treetest.New(rng, taxaNames(ntaxa))
		if err != nil {
			t.Fatal(err)
		}

		// optimize smooths g.T with opt on eng and a copy with a fresh
		// engine; the lnL and every length must agree bit for bit.
		optimize := func(step int, opt OptOptions) {
			ref := g.T.Clone()
			refOpt := opt
			refOpt.Centers = nil
			for _, c := range opt.Centers {
				refOpt.Centers = append(refOpt.Centers, ref.Nodes[c.ID])
			}
			got, err := eng.OptimizeBranches(g.T, opt)
			if err != nil {
				t.Fatalf("seed %d step %d: optimize: %v", seed, step, err)
			}
			want, err := fresh().OptimizeBranches(ref, refOpt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) || !sameLengths(g.T, ref) {
				t.Fatalf("seed %d step %d: optimize %+v: lnL %.17g vs fresh %.17g, lengths equal %v",
					seed, step, opt, got, want, sameLengths(g.T, ref))
			}
		}
		randomNode := func() *tree.Node {
			ed := g.Edge()
			if rng.Intn(2) == 0 {
				return ed.A
			}
			return ed.B
		}

		for step := 0; step < 80; step++ {
			what := ""
			switch k := rng.Intn(13); {
			case k == 12:
				// Twins: with every direction of the tree cached and
				// stamped, the engine optimizes a perturbed edge of a
				// Clone (equal node IDs and edit count), the tree replays
				// the result through SetLen, and the script continues on
				// the tree — whose count now equals the one the engine
				// advanced on the twin, so only the tree's identity says
				// its stamps are stale.
				ed := g.Edge()
				tree.SetLen(ed.A, ed.B, g.Length())
				if _, _, err := eng.BranchGradients(g.T, nil); err != nil {
					t.Fatal(err)
				}
				twin := g.T.Clone()
				if _, err := eng.OptimizeEdge(twin, tree.Edge{A: twin.Nodes[ed.A.ID], B: twin.Nodes[ed.B.ID]}); err != nil {
					t.Fatal(err)
				}
				tree.SetLen(ed.A, ed.B, twin.Nodes[ed.A.ID].LenTo(twin.Nodes[ed.B.ID]))
				optimize(step, OptOptions{Passes: 1})
				what = "twin"
			case k < 5:
				ed, err := g.Step()
				if err != nil {
					t.Fatalf("seed %d step %d (%v): %v", seed, step, ed.Op, err)
				}
				if ed.Op == treetest.OpDirectLen {
					eng.InvalidateEdge(ed.Edge.A, ed.Edge.B)
				}
				what = ed.Op.String()
			case k == 5:
				eng.InvalidateAll()
				what = "invalidate-all"
			case k == 6:
				optimize(step, OptOptions{Passes: 1 + rng.Intn(2)})
				what = "optimize-full"
			case k == 7:
				optimize(step, OptOptions{Passes: 2, Centers: []*tree.Node{randomNode(), randomNode()}, Radius: 1 + rng.Intn(2)})
				what = "optimize-restricted"
			case k == 8:
				// A rearrangement task: apply, smooth around both centres,
				// undo, restore every length.
				mv, ok := g.Move()
				if !ok {
					continue
				}
				snap := lengthsByID(g.T)
				u, err := g.T.ApplySPR(mv)
				if err != nil {
					t.Fatalf("seed %d step %d: apply: %v", seed, step, err)
				}
				optimize(step, OptOptions{Passes: 2, Centers: []*tree.Node{u.Mid, u.Joined.A, u.Joined.B}, Radius: 1})
				u.Undo()
				for _, s := range snap {
					if a, b := g.T.Nodes[s.a], g.T.Nodes[s.b]; a.NbrIndex(b) >= 0 {
						tree.SetLen(a, b, s.l)
					}
				}
				what = "move-task"
			case k == 9:
				ed := g.Edge()
				ref := g.T.Clone()
				got, err := eng.OptimizeEdge(g.T, ed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh().OptimizeEdge(ref, tree.Edge{A: ref.Nodes[ed.A.ID], B: ref.Nodes[ed.B.ID]})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) || !sameLengths(g.T, ref) {
					t.Fatalf("seed %d step %d: OptimizeEdge lnL %.17g vs fresh %.17g", seed, step, got, want)
				}
				what = "optimize-edge"
			default:
				removed := g.Removed()
				if len(removed) == 0 {
					continue
				}
				taxon := removed[rng.Intn(len(removed))]
				sc, err := eng.NewInsertScorer(g.T, taxon)
				if err != nil {
					t.Fatal(err)
				}
				ref := fresh()
				rsc, err := ref.NewInsertScorer(g.T, taxon)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					ed := g.Edge()
					got, err := sc.Score(ed, 2)
					if err != nil {
						t.Fatal(err)
					}
					want, err := rsc.Score(ed, 2)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d step %d: Score %+v vs fresh %+v", seed, step, got, want)
					}
				}
				what = "insert-score"
			}
			got, err := eng.LogLikelihood(g.T)
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, what, err)
			}
			want, err := fresh().LogLikelihood(g.T)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d (%s): lnL %.17g, fresh engine %.17g", seed, step, what, got, want)
			}
		}
	}
}

type idLen struct {
	a, b int
	l    float64
}

// lengthsByID snapshots every edge length by endpoint IDs.
func lengthsByID(t *tree.Tree) []idLen {
	var out []idLen
	for _, ed := range t.Edges() {
		out = append(out, idLen{ed.A.ID, ed.B.ID, ed.Length()})
	}
	return out
}

// sameLengths reports whether two trees with the same node IDs and
// neighbor order (a tree and its Clone) carry bit-identical lengths.
func sameLengths(a, b *tree.Tree) bool {
	for id, n := range a.Nodes {
		if n == nil {
			continue
		}
		for i, l := range n.Len {
			if math.Float64bits(l) != math.Float64bits(b.Nodes[id].Len[i]) {
				return false
			}
		}
	}
	return true
}
