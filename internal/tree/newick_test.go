package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewickRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		names := taxaNames(n)
		tr, err := RandomTree(names, rng, 0.2)
		if err != nil {
			return false
		}
		s := tr.Newick()
		back, err := ParseNewick(s, names)
		if err != nil {
			return false
		}
		if back.Newick() != s {
			return false
		}
		return SameTopology(tr, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNewickCanonicalRootingInvariant(t *testing.T) {
	// The canonical rendering must be the same regardless of which node
	// the parse attached things to; re-parsing a non-canonical rendering
	// still canonicalizes identically.
	names := []string{"a", "b", "c", "d", "e"}
	t1, err := ParseNewick("((a:1,b:2):0.5,c:1,(d:1,e:1):0.25);", names)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ParseNewick("((d:1,e:1):0.25,(b:2,a:1):0.5,c:1);", names)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Newick() != t2.Newick() {
		t.Errorf("canonical forms differ:\n%s\n%s", t1.Newick(), t2.Newick())
	}
}

func TestNewickUnrootsRootedInput(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	tr, err := ParseNewick("((a:1,b:1):0.5,(c:1,d:1):0.5);", names)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err != nil {
		t.Fatalf("rooted input should yield valid unrooted binary tree: %v", err)
	}
	// The two root edges merge: the internal edge should have length 1.
	for _, e := range tr.InternalEdges() {
		if math.Abs(e.Length()-1.0) > 1e-12 {
			t.Errorf("merged root edge length = %g, want 1", e.Length())
		}
	}
}

func TestNewickQuotedLabels(t *testing.T) {
	names := []string{"Homo sapiens", "Pan(troglodytes)", "it's"}
	tr, err := Triple(names, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Newick()
	if !strings.Contains(s, "'Homo sapiens'") {
		t.Errorf("expected quoted label in %s", s)
	}
	back, err := ParseNewick(s, names)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumLeaves() != 3 {
		t.Error("quoted round trip lost leaves")
	}
}

func TestNewickErrors(t *testing.T) {
	names := []string{"a", "b", "c"}
	bad := []string{
		"",
		"(a,b,c",        // unterminated
		"(a,b,zz);",     // unknown taxon
		"(a,b,a);",      // duplicate taxon
		"(a,b,c);extra", // trailing garbage
		"(a:x,b,c);",    // bad length
	}
	for _, s := range bad {
		if _, err := ParseNewick(s, names); err == nil {
			t.Errorf("ParseNewick(%q): expected error", s)
		}
	}
}

func TestNewickComments(t *testing.T) {
	names := []string{"a", "b", "c"}
	tr, err := ParseNewick("[comment](a[x]:1,b:2,c:3)[y];", names)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 3 {
		t.Error("comment parsing lost leaves")
	}
}

func TestNewickNegativeLengthClamped(t *testing.T) {
	names := []string{"a", "b", "c"}
	tr, err := ParseNewick("(a:-0.5,b:1,c:1);", names)
	if err != nil {
		t.Fatal(err)
	}
	leaf := tr.LeafByTaxon(0)
	if leaf.Len[0] != 0 {
		t.Errorf("negative length should clamp to 0, got %g", leaf.Len[0])
	}
}

func TestTopologyIgnoresLengths(t *testing.T) {
	names := taxaNames(6)
	rng := rand.New(rand.NewSource(4))
	tr, _ := RandomTree(names, rng, 0.1)
	key1 := tr.Topology()
	for _, e := range tr.Edges() {
		SetLen(e.A, e.B, e.Length()*3+0.01)
	}
	if tr.Topology() != key1 {
		t.Error("Topology changed when only lengths changed")
	}
}

func TestParseNewickMultifurcating(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	tr, err := ParseNewick("(a,b,c,d,e);", names)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(false); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(true); err == nil {
		t.Error("star tree should fail binary validation")
	}
}

// writeNewickRecursive is WriteNewick as it was before it wrote into one
// buffer — a string per node per level, sort.Slice and a strings.Builder
// at every internal node — kept verbatim as the reference the
// single-buffer writer must match byte for byte.
func writeNewickRecursive(t *Tree, opt WriteNewickOptions) (string, error) {
	anchor := t.AnyNode()
	if anchor == nil {
		return "", fmt.Errorf("tree: empty tree")
	}
	if opt.Canonical {
		// Anchor at the attachment of the smallest-taxon leaf so the
		// rendering is rooting-invariant.
		taxa := t.TaxaInTree()
		leaf := t.LeafByTaxon(taxa[0])
		if leaf.Degree() > 0 {
			anchor = leaf.Nbr[0]
		} else {
			anchor = leaf
		}
	}
	prec := opt.Precision
	if prec <= 0 {
		prec = 9
	}
	// render returns the subtree's text and its smallest contained taxon.
	var render func(n, parent *Node) (string, int)
	render = func(n, parent *Node) (string, int) {
		if n.Leaf() && (parent != nil || n.Degree() == 0) {
			return quoteLabelRef(t.Taxa[n.Taxon]), n.Taxon
		}
		type child struct {
			text string
			min  int
		}
		var kids []child
		for _, m := range n.Nbr {
			if m == parent {
				continue
			}
			text, minTax := render(m, n)
			if opt.Lengths {
				text += ":" + strconv.FormatFloat(n.LenTo(m), 'g', prec, 64)
			}
			kids = append(kids, child{text, minTax})
		}
		if opt.Canonical {
			sort.Slice(kids, func(i, j int) bool { return kids[i].min < kids[j].min })
		}
		var b strings.Builder
		b.WriteByte('(')
		for i, k := range kids {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k.text)
		}
		b.WriteByte(')')
		min := math.MaxInt32
		for _, k := range kids {
			if k.min < min {
				min = k.min
			}
		}
		if n.Leaf() {
			// A leaf used as the traversal root still prints its label.
			b.WriteString(quoteLabelRef(t.Taxa[n.Taxon]))
			if n.Taxon < min {
				min = n.Taxon
			}
		}
		return b.String(), min
	}
	text, _ := render(anchor, nil)
	return text + ";", nil
}

// quoteLabelRef is the reference writer's label quoting, verbatim.
func quoteLabelRef(s string) string {
	if strings.ContainsAny(s, "();:, \t'[]") {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	return s
}

// TestWriteNewickMatchesRecursiveWriter: the single-buffer writer gives
// the reference writer's bytes for every option combination, on random
// binary trees of 3-60 taxa whose labels need quoting, on multifurcating
// trees, and on the trees whose traversal starts at a leaf (two leaves
// joined by one edge) or is a single leaf.
func TestWriteNewickMatchesRecursiveWriter(t *testing.T) {
	var opts []WriteNewickOptions
	for _, lengths := range []bool{false, true} {
		for _, canonical := range []bool{false, true} {
			for _, prec := range []int{0, 3, 17} {
				opts = append(opts, WriteNewickOptions{Lengths: lengths, Canonical: canonical, Precision: prec})
			}
		}
	}
	check := func(name string, tr *Tree) {
		t.Helper()
		for _, opt := range opts {
			want, werr := writeNewickRecursive(tr, opt)
			got, gerr := tr.WriteNewick(opt)
			if (werr == nil) != (gerr == nil) || got != want {
				t.Fatalf("%s %+v:\n got %q (%v)\nwant %q (%v)", name, opt, got, gerr, want, werr)
			}
		}
	}
	awkward := []string{"Homo sapiens", "it's", "a(b)", "x:y", "p,q", "[z]", "tab\there", "semi;colon", "''"}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 150; i++ {
		n := 3 + rng.Intn(58)
		names := taxaNames(n)
		for j := range names {
			if rng.Intn(4) == 0 {
				names[j] = fmt.Sprintf("%s %d", awkward[rng.Intn(len(awkward))], j)
			}
		}
		tr, err := RandomTree(names, rng, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		// A few exact zeros and very small and large lengths.
		for _, e := range tr.Edges() {
			switch rng.Intn(12) {
			case 0:
				SetLen(e.A, e.B, 0)
			case 1:
				SetLen(e.A, e.B, 1e-9*rng.Float64())
			case 2:
				SetLen(e.A, e.B, 1e6*rng.Float64())
			}
		}
		check(fmt.Sprintf("random tree %d (%d taxa)", i, n), tr)
		if i%5 == 0 {
			// Collapse a random internal edge or two into multifurcations.
			for k := 0; k < 2; k++ {
				if in := tr.InternalEdges(); len(in) > 0 {
					e := in[rng.Intn(len(in))]
					for len(e.B.Nbr) > 0 {
						c, l := e.B.Nbr[0], e.B.Len[0]
						disconnect(e.B, c)
						if c != e.A {
							connect(e.A, c, l)
						}
					}
					tr.releaseNode(e.B)
				}
			}
			if err := tr.Validate(false); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("multifurcating tree %d", i), tr)
		}
	}

	names := []string{"a", "b c", "d"}
	pair := New(names)
	if _, err := pair.GraftPair(2, 1, 0.25); err != nil {
		t.Fatal(err)
	}
	check("two leaves", pair)
	single := New(names)
	single.newNode(1)
	check("single leaf", single)
	if _, err := New(names).WriteNewick(WriteNewickOptions{}); err == nil {
		t.Error("empty tree rendered")
	}
}
