package tree

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Newick support. Trees travel between the master, foreman, and workers as
// Newick strings (the paper's processes exchange ASCII-encoded tree files),
// so parsing and writing must round-trip topology and branch lengths
// exactly for the parallel runtime to be correct.

// WriteNewickOptions control Newick output.
type WriteNewickOptions struct {
	// Lengths includes branch lengths (":0.123456") when true.
	Lengths bool
	// Canonical orders subtrees by their smallest contained taxon index
	// and anchors the output at the leaf with the smallest taxon, giving
	// a unique string per (topology, lengths) pair.
	Canonical bool
	// Precision is the number of significant digits for lengths
	// (9 when zero).
	Precision int
}

// Newick renders the tree with lengths, canonically ordered.
func (t *Tree) Newick() string {
	s, err := t.WriteNewick(WriteNewickOptions{Lengths: true, Canonical: true})
	if err != nil {
		return fmt.Sprintf("<invalid tree: %v>", err)
	}
	return s
}

// Topology renders the tree canonically without branch lengths; equal
// strings mean equal unrooted topologies.
func (t *Tree) Topology() string {
	s, err := t.WriteNewick(WriteNewickOptions{Canonical: true})
	if err != nil {
		return fmt.Sprintf("<invalid tree: %v>", err)
	}
	return s
}

// WriteNewick renders the tree as a Newick string terminated by ';'.
func (t *Tree) WriteNewick(opt WriteNewickOptions) (string, error) {
	anchor := t.AnyNode()
	if anchor == nil {
		return "", fmt.Errorf("tree: empty tree")
	}
	if opt.Canonical {
		// Anchor at the attachment of the smallest-taxon leaf so the
		// rendering is rooting-invariant.
		leaf := t.minLeaf()
		if leaf.Degree() > 0 {
			anchor = leaf.Nbr[0]
		} else {
			anchor = leaf
		}
	}
	w := newickWriter{t: t, opt: opt, buf: make([]byte, 0, 24*len(t.Nodes))}
	if w.opt.Precision <= 0 {
		w.opt.Precision = 9
	}
	if opt.Canonical {
		w.min = make([]int, len(t.Nodes))
		subtreeMins(w.min, anchor, nil)
	}
	w.node(anchor, nil)
	w.buf = append(w.buf, ';')
	return string(w.buf), nil
}

// minLeaf returns the leaf with the smallest taxon index, or nil.
func (t *Tree) minLeaf() *Node {
	var leaf *Node
	for _, n := range t.Nodes {
		if n != nil && n.Leaf() && (leaf == nil || n.Taxon < leaf.Taxon) {
			leaf = n
		}
	}
	return leaf
}

// newickWriter renders one tree into one buffer: a first walk records
// each subtree's smallest taxon (canonical output orders siblings by
// it), a second emits the text depth-first.
type newickWriter struct {
	t   *Tree
	opt WriteNewickOptions
	buf []byte
	// min[id] is the smallest taxon in the subtree below node id as seen
	// from the anchor; set only for canonical output.
	min []int
	// order is a stack of sibling lists being emitted, one frame per
	// internal node on the current path.
	order []*Node
}

// subtreeMins sets min[id] to the smallest taxon in the subtree below
// node id, for every node of the subtree at n entered from parent, and
// returns n's. The canonical Newick writer and topoKey order siblings by
// it.
func subtreeMins(min []int, n, parent *Node) int {
	m := math.MaxInt
	if n.Leaf() {
		m = n.Taxon
	}
	for _, c := range n.Nbr {
		if c != parent {
			if cm := subtreeMins(min, c, n); cm < m {
				m = cm
			}
		}
	}
	min[n.ID] = m
	return m
}

// node emits the subtree at n entered from parent.
func (w *newickWriter) node(n, parent *Node) {
	if n.Leaf() && (parent != nil || n.Degree() == 0) {
		w.buf = appendLabel(w.buf, w.t.Taxa[n.Taxon])
		return
	}
	base := len(w.order)
	for _, c := range n.Nbr {
		if c != parent {
			w.order = append(w.order, c)
		}
	}
	if w.opt.Canonical {
		// Insertion sort: sibling lists are short, and their smallest
		// taxa are distinct, so the order is unique.
		kids := w.order[base:]
		for i := 1; i < len(kids); i++ {
			for j := i; j > 0 && w.min[kids[j].ID] < w.min[kids[j-1].ID]; j-- {
				kids[j], kids[j-1] = kids[j-1], kids[j]
			}
		}
	}
	w.buf = append(w.buf, '(')
	for i := base; i < len(w.order); i++ {
		if i > base {
			w.buf = append(w.buf, ',')
		}
		c := w.order[i]
		w.node(c, n)
		if w.opt.Lengths {
			w.buf = append(w.buf, ':')
			w.buf = strconv.AppendFloat(w.buf, n.LenTo(c), 'g', w.opt.Precision, 64)
		}
	}
	w.order = w.order[:base]
	if n.Leaf() {
		// A leaf used as the traversal root (a two-leaf tree) prints as a
		// zero-length sibling of its neighbor: after the ')' its label
		// would read back as an internal label, which parsing ignores.
		w.buf = append(w.buf, ',')
		w.buf = appendLabel(w.buf, w.t.Taxa[n.Taxon])
		if w.opt.Lengths {
			w.buf = append(w.buf, ":0"...)
		}
	}
	w.buf = append(w.buf, ')')
}

// appendLabel appends a taxon label, quoted when it contains Newick
// metacharacters.
func appendLabel(buf []byte, s string) []byte {
	if !strings.ContainsAny(s, "();:, \t'[]") {
		return append(buf, s...)
	}
	buf = append(buf, '\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			buf = append(buf, '\'')
		}
		buf = append(buf, s[i])
	}
	return append(buf, '\'')
}

// ParseNewick parses a Newick string into an unrooted tree over the given
// taxon set. Labels must name members of taxa. Rooted inputs (a top-level
// bifurcation) are unrooted by merging the two root edges. Internal labels
// and bracket comments are ignored.
func ParseNewick(s string, taxa []string) (*Tree, error) {
	idx := make(map[string]int, len(taxa))
	for i, name := range taxa {
		if _, dup := idx[name]; dup {
			return nil, fmt.Errorf("newick: duplicate taxon label %q", name)
		}
		idx[name] = i
	}
	p := &newickParser{src: s, taxa: idx}
	return p.parse(New(taxa))
}

// NewickLabels returns the leaf labels of a Newick string in order of
// appearance, for tools that have no alignment to define the taxon set.
// It runs ParseNewick's own parser, so it succeeds exactly when
// ParseNewick(s, labels) does.
func NewickLabels(s string) ([]string, error) {
	p := &newickParser{src: s, taxa: map[string]int{}, collect: true}
	t, err := p.parse(New(nil))
	if err != nil {
		return nil, err
	}
	return t.Taxa, nil
}

// parse reads the whole source as one tree into t.
func (p *newickParser) parse(t *Tree) (*Tree, error) {
	root, _, err := p.parseSubtree(t)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == ';' {
		p.pos++
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("newick: trailing input at offset %d", p.pos)
	}
	if root == nil {
		return nil, fmt.Errorf("newick: empty input")
	}
	// Unroot a rooted (degree-2) root by dissolving it.
	if !root.Leaf() && root.Degree() == 2 {
		t.join(root)
	}
	if err := t.Validate(false); err != nil {
		return nil, fmt.Errorf("newick: %w", err)
	}
	return t, nil
}

type newickParser struct {
	src  string
	pos  int
	taxa map[string]int
	// collect adds each new leaf label to taxa and to the tree's taxon
	// set instead of refusing it.
	collect bool
}

func (p *newickParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		case '[': // bracket comment
			end := strings.IndexByte(p.src[p.pos:], ']')
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 1
		default:
			return
		}
	}
}

// parseSubtree parses a subtree and returns its root node and the branch
// length annotated on it (0 when absent).
func (p *newickParser) parseSubtree(t *Tree) (*Node, float64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, 0, fmt.Errorf("newick: unexpected end of input")
	}
	var n *Node
	if p.src[p.pos] == '(' {
		open := p.pos
		p.pos++
		n = t.newNode(-1)
		for {
			child, clen, err := p.parseSubtree(t)
			if err != nil {
				return nil, 0, err
			}
			connect(n, child, clen)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, 0, fmt.Errorf("newick: unterminated '('")
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, 0, fmt.Errorf("newick: unexpected %q at offset %d", p.src[p.pos], p.pos)
		}
		// A one-member group would be an inner node of degree two (one at
		// the top), which no unrooted tree has and no rendering restores.
		if n.Degree() < 2 {
			return nil, 0, fmt.Errorf("newick: group at offset %d has one member", open)
		}
		// Optional internal label, ignored.
		if _, err := p.parseLabel(); err != nil {
			return nil, 0, err
		}
	} else {
		label, err := p.parseLabel()
		if err != nil {
			return nil, 0, err
		}
		if label == "" {
			return nil, 0, fmt.Errorf("newick: missing taxon label at offset %d", p.pos)
		}
		ti, ok := p.taxa[label]
		if !ok && p.collect {
			ti = len(t.Taxa)
			p.taxa[label] = ti
			t.Taxa = append(t.Taxa, label)
		} else if !ok {
			return nil, 0, fmt.Errorf("newick: unknown taxon %q", label)
		}
		if t.LeafByTaxon(ti) != nil {
			return nil, 0, fmt.Errorf("newick: taxon %q appears twice", label)
		}
		n = t.newNode(ti)
	}
	length, err := p.parseLength()
	if err != nil {
		return nil, 0, err
	}
	return n, length, nil
}

func (p *newickParser) parseLabel() (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return "", nil
	}
	if p.src[p.pos] == '\'' {
		var b strings.Builder
		p.pos++
		for p.pos < len(p.src) {
			ch := p.src[p.pos]
			if ch == '\'' {
				if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\'' {
					b.WriteByte('\'')
					p.pos += 2
					continue
				}
				p.pos++
				return b.String(), nil
			}
			b.WriteByte(ch)
			p.pos++
		}
		return "", fmt.Errorf("newick: unterminated quoted label")
	}
	start := p.pos
	for p.pos < len(p.src) {
		ch := p.src[p.pos]
		if ch == '(' || ch == ')' || ch == ',' || ch == ':' || ch == ';' ||
			ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' || ch == '[' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func (p *newickParser) parseLength() (float64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != ':' {
		return 0, nil
	}
	p.pos++
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		ch := p.src[p.pos]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == '-' || ch == '+' || ch == 'e' || ch == 'E' {
			p.pos++
			continue
		}
		break
	}
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("newick: bad branch length at offset %d: %w", start, err)
	}
	if v < 0 {
		v = 0
	}
	return v, nil
}
