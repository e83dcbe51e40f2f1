package likelihood

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/seq"
	"repro/internal/tree"
)

// Property test for the CLV cache: after arbitrary sequences of branch
// length edits, SPR moves, leaf insertions/removals, out-of-band length
// mutations with explicit invalidation, cache flushes, and smoothing
// passes, the incremental engine's log-likelihood must match a fresh
// engine's from-scratch evaluation of the same tree to 1e-9.

// randomRows builds n random aligned sequences of the given length.
func randomRows(rng *rand.Rand, n, sites int) []string {
	const bases = "ACGT"
	rows := make([]string, n)
	buf := make([]byte, sites)
	for i := range rows {
		for s := range buf {
			// Correlate sites across taxa so trees are informative.
			if i > 0 && rng.Float64() < 0.7 {
				buf[s] = rows[i-1][s]
			} else {
				buf[s] = bases[rng.Intn(4)]
			}
		}
		rows[i] = string(buf)
	}
	return rows
}

func TestIncrementalMatchesFromScratch(t *testing.T) {
	cases := []struct {
		seed  int64
		taxa  int
		sites int
		steps int
	}{
		{seed: 1, taxa: 6, sites: 80, steps: 30},
		{seed: 2, taxa: 8, sites: 120, steps: 30},
		{seed: 3, taxa: 10, sites: 60, steps: 40},
		{seed: 4, taxa: 7, sites: 100, steps: 25},
	}
	for _, tc := range cases {
		tc := tc
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			rows := randomRows(rng, tc.taxa, tc.sites)
			p, _ := mkPatterns(t, rows...)
			// Force several rate classes so the class-blocked kernels and
			// the pattern permutation are exercised.
			classes := []float64{0.3, 1.0, 2.5}
			for i := range p.Rates {
				p.Rates[i] = classes[i%len(classes)]
			}
			m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := New(m, p)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := tree.RandomTree(taxaNames(tc.taxa), rng, 0.15)
			if err != nil {
				t.Fatal(err)
			}

			check := func(step int, op string) {
				got, err := inc.LogLikelihood(tr)
				if err != nil {
					t.Fatalf("step %d (%s): incremental: %v", step, op, err)
				}
				fresh, err := New(m, p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.LogLikelihood(tr)
				if err != nil {
					t.Fatalf("step %d (%s): from-scratch: %v", step, op, err)
				}
				if diff := math.Abs(got - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("step %d (%s): incremental %.12f vs from-scratch %.12f (diff %g)", step, op, got, want, diff)
				}
			}

			randomEdge := func() tree.Edge {
				edges := tr.Edges()
				return edges[rng.Intn(len(edges))]
			}
			var removed []int
			check(-1, "initial")
			for step := 0; step < tc.steps; step++ {
				op := "none"
				switch rng.Intn(7) {
				case 0: // branch length edit through SetLen
					ed := randomEdge()
					tree.SetLen(ed.A, ed.B, rng.ExpFloat64()*0.15+MinBranchLength)
					op = "setlen"
				case 1: // random SPR move, applied permanently
					var moves []tree.SPRMove
					if _, err := tr.Rearrangements(1, func(_ *tree.Tree, cand tree.RearrangeCandidate) bool {
						moves = append(moves, cand.Move())
						return true
					}); err != nil {
						t.Fatalf("step %d: rearrangements: %v", step, err)
					}
					if len(moves) == 0 {
						continue
					}
					if _, err := tr.ApplySPR(moves[rng.Intn(len(moves))]); err != nil {
						t.Fatalf("step %d: apply SPR: %v", step, err)
					}
					op = "spr"
				case 2: // remove a random leaf
					present := tr.TaxaInTree()
					if len(present) <= 4 {
						continue
					}
					tax := present[rng.Intn(len(present))]
					if err := tr.RemoveLeaf(tax); err != nil {
						t.Fatalf("step %d: remove leaf: %v", step, err)
					}
					removed = append(removed, tax)
					op = "remove"
				case 3: // reinsert a removed leaf at a random edge
					if len(removed) == 0 {
						continue
					}
					tax := removed[len(removed)-1]
					removed = removed[:len(removed)-1]
					if _, err := tr.InsertLeaf(tax, randomEdge()); err != nil {
						t.Fatalf("step %d: insert leaf: %v", step, err)
					}
					op = "insert"
				case 4: // out-of-band length mutation + explicit invalidation
					ed := randomEdge()
					v := rng.ExpFloat64()*0.15 + MinBranchLength
					ed.A.Len[ed.A.NbrIndex(ed.B)] = v
					ed.B.Len[ed.B.NbrIndex(ed.A)] = v
					inc.InvalidateEdge(ed.A, ed.B)
					op = "invalidate-edge"
				case 5: // full cache flush
					inc.InvalidateAll()
					op = "invalidate-all"
				case 6: // a smoothing pass mutates many lengths via the cache
					if _, err := inc.OptimizeBranches(tr, OptOptions{Passes: 1}); err != nil {
						t.Fatalf("step %d: optimize: %v", step, err)
					}
					op = "optimize"
				}
				check(step, op)
			}

			st := inc.Stats()
			if st.Hits == 0 {
				t.Errorf("expected cache hits over %d steps, got stats %+v", tc.steps, st)
			}
			if st.Misses == 0 || st.Recomputed == 0 {
				t.Errorf("expected cache misses/recomputes, got stats %+v", st)
			}
			if st.Flushes == 0 && st.Invalidated == 0 {
				t.Errorf("expected explicit invalidations to be counted, got stats %+v", st)
			}
		})
	}
}

// TestSetLenRefillsExactlyItsDependents: a CLV entry depends on exactly
// the branch lengths inside its subtree, so on a warm cache SetLen(p, u)
// refills exactly the entries whose subtree contains edge p–u — first
// those LogLikelihood looks up, then, with every direction looked up,
// all of them — and never (p seen from u) or (u seen from p), whose
// vectors do not read the edge's own length.
func TestSetLenRefillsExactlyItsDependents(t *testing.T) {
	m, p, tr := threadFixture(t, 21, 12, 200)
	e, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	type dir struct{ n, parent int }
	for _, ed := range tr.InternalEdges() {
		if _, _, err := e.BranchGradients(tr, nil); err != nil {
			t.Fatal(err)
		}
		gens := map[*clvEntry]uint64{}
		for _, list := range e.cache.byNode {
			for _, ent := range list {
				if ent.filled {
					gens[ent] = ent.gen
				}
			}
		}
		root, _ := tr.FirstEdge()
		// refilled lists the entries refilled since the snapshot; want
		// those whose subtree holds the edited edge and, when viaRoot,
		// not the root edge LogLikelihood evaluates across.
		check := func(phase string, viaRoot bool, recomputed uint64) {
			t.Helper()
			var got, want []dir
			for ent, g := range gens {
				d := dir{ent.node.ID, ent.parent.ID}
				if ent.gen != g {
					got = append(got, d)
				}
				if subtreeHolds(ent.node, ent.parent, ed) && !(viaRoot && subtreeHolds(ent.node, ent.parent, root)) {
					want = append(want, d)
				}
			}
			byDir := func(a, b dir) int { return cmp.Or(a.n-b.n, a.parent-b.parent) }
			slices.SortFunc(got, byDir)
			slices.SortFunc(want, byDir)
			if !slices.Equal(got, want) || recomputed != uint64(len(want)) {
				t.Errorf("edge %d-%d, %s: refilled %v (Recomputed %d), want %v", ed.A.ID, ed.B.ID, phase, got, recomputed, want)
			}
			for _, d := range got {
				if (d.n == ed.A.ID && d.parent == ed.B.ID) || (d.n == ed.B.ID && d.parent == ed.A.ID) {
					t.Errorf("edge %d-%d, %s: refilled %d seen from %d, which does not read the edge", ed.A.ID, ed.B.ID, phase, d.n, d.parent)
				}
			}
		}
		before := e.Stats().Recomputed
		tree.SetLen(ed.A, ed.B, 1.5*ed.Length()+0.01)
		if _, err := e.LogLikelihood(tr); err != nil {
			t.Fatal(err)
		}
		check("LogLikelihood", true, e.Stats().Recomputed-before)
		if _, _, err := e.BranchGradients(tr, nil); err != nil {
			t.Fatal(err)
		}
		check("every direction", false, e.Stats().Recomputed-before)
	}
}

// subtreeHolds reports whether edge ed lies in the subtree at n seen from
// parent (the edge n–parent itself excluded).
func subtreeHolds(n, parent *tree.Node, ed tree.Edge) bool {
	for _, c := range n.Nbr {
		if c == parent {
			continue
		}
		if (n == ed.A && c == ed.B) || (n == ed.B && c == ed.A) || subtreeHolds(c, n, ed) {
			return true
		}
	}
	return false
}

// TestInsertScorerMatchesExplicitInsertion: the shared-base insertion
// score must equal building the candidate tree explicitly (InsertLeaf +
// the scorer's optimized junction lengths) and evaluating it.
func TestInsertScorerMatchesExplicitInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randomRows(rng, 9, 150)
	p, _ := mkPatterns(t, rows...)
	m, err := model.NewF84(seq.EmpiricalFreqsPatterns(p), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := tree.RandomTree(taxaNames(9), rng, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	const taxon = 8
	if err := base.RemoveLeaf(taxon); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OptimizeBranches(base, OptOptions{Passes: 2}); err != nil {
		t.Fatal(err)
	}
	scorer, err := e.NewInsertScorer(base, taxon)
	if err != nil {
		t.Fatal(err)
	}
	for i, ed := range base.InsertionEdges() {
		score, err := scorer.Score(ed, 2)
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
		cand := base.Clone()
		ca, cb := cand.Nodes[ed.A.ID], cand.Nodes[ed.B.ID]
		leaf, err := cand.InsertLeaf(taxon, tree.Edge{A: ca, B: cb})
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
		mid := leaf.Nbr[0]
		tree.SetLen(ca, mid, score.LenA)
		tree.SetLen(mid, cb, score.LenB)
		tree.SetLen(mid, leaf, score.LenLeaf)
		fresh, err := New(m, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.LogLikelihood(cand)
		if err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
		if diff := math.Abs(score.LnL - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("edge %d: scorer %.12f vs explicit tree %.12f (diff %g)", i, score.LnL, want, diff)
		}
	}
}
