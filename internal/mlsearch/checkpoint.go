package mlsearch

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tree"
)

// Checkpointing: fastDNAml writes restart files so multi-day analyses
// survive machine failures. A checkpoint captures the search position
// after a completed taxon addition (or the final phase): the taxon order,
// how many of them are in the tree, and the current best tree.

// Checkpoint phases.
const (
	// PhaseAdding means taxa Order[:NextIndex] are in the tree and
	// Order[NextIndex] is next to insert.
	PhaseAdding = "adding"
	// PhaseFinal means every taxon is in the tree; the final
	// rearrangement pass is still to run.
	PhaseFinal = "final"
	// PhaseDone means the search finished.
	PhaseDone = "done"
)

// Checkpoint is a resumable search position.
type Checkpoint struct {
	// Seed is the (normalized) seed of the ordering.
	Seed int64
	// Jumble is the ordering's index in a multi-jumble run.
	Jumble int
	// Order is the full taxon insertion order.
	Order []int
	// NextIndex is the position in Order of the next taxon to insert
	// (== len(Order) when all are in).
	NextIndex int
	// Phase is PhaseAdding, PhaseFinal, or PhaseDone.
	Phase string
	// Newick is the current best tree.
	Newick string
	// LnL is the current best log-likelihood.
	LnL float64
}

// Validate checks internal consistency against a taxon count.
func (cp Checkpoint) Validate(numTaxa int) error {
	if len(cp.Order) != numTaxa {
		return fmt.Errorf("mlsearch: checkpoint order covers %d of %d taxa", len(cp.Order), numTaxa)
	}
	seen := make([]bool, numTaxa)
	for _, t := range cp.Order {
		if t < 0 || t >= numTaxa || seen[t] {
			return fmt.Errorf("mlsearch: checkpoint order is not a permutation")
		}
		seen[t] = true
	}
	switch cp.Phase {
	case PhaseAdding:
		if cp.NextIndex < 3 || cp.NextIndex > len(cp.Order) {
			return fmt.Errorf("mlsearch: checkpoint next index %d out of range", cp.NextIndex)
		}
	case PhaseFinal, PhaseDone:
		if cp.NextIndex != len(cp.Order) {
			return fmt.Errorf("mlsearch: %s checkpoint with next index %d", cp.Phase, cp.NextIndex)
		}
	default:
		return fmt.Errorf("mlsearch: unknown checkpoint phase %q", cp.Phase)
	}
	if cp.Newick == "" {
		return fmt.Errorf("mlsearch: checkpoint without a tree")
	}
	return nil
}

// writeCheckpointBody writes the key-value lines of one manifest block:
//
//	seed <n>
//	jumble <n>
//	phase adding|final|done
//	next <n>
//	order <i0>,<i1>,...
//	lnl <float>
//	tree <newick>
func writeCheckpointBody(bw *bufio.Writer, cp Checkpoint) error {
	fmt.Fprintf(bw, "seed %d\n", cp.Seed)
	fmt.Fprintf(bw, "jumble %d\n", cp.Jumble)
	fmt.Fprintf(bw, "phase %s\n", cp.Phase)
	fmt.Fprintf(bw, "next %d\n", cp.NextIndex)
	parts := make([]string, len(cp.Order))
	for i, t := range cp.Order {
		parts[i] = strconv.Itoa(t)
	}
	fmt.Fprintf(bw, "order %s\n", strings.Join(parts, ","))
	fmt.Fprintf(bw, "lnl %s\n", strconv.FormatFloat(cp.LnL, 'g', 17, 64))
	_, err := fmt.Fprintf(bw, "tree %s\n", cp.Newick)
	return err
}

// checkpointKeys are the required keys, in written order. A file missing
// any of them (truncated write, manual edit) is rejected at parse time
// rather than resumed from a half-parsed position.
var checkpointKeys = []string{"seed", "jumble", "phase", "next", "order", "lnl", "tree"}

// checkpointParser accumulates key-value lines into a Checkpoint. It is
// strict: duplicate keys fail immediately (last-write-wins would silently
// mask a corrupted file) and finish() names any missing required key.
// The manifest reader shares it for the per-jumble blocks.
type checkpointParser struct {
	cp   Checkpoint
	seen map[string]bool
}

func newCheckpointParser() *checkpointParser {
	return &checkpointParser{seen: map[string]bool{}}
}

func (p *checkpointParser) line(line string) error {
	key, val, ok := strings.Cut(line, " ")
	if !ok {
		return fmt.Errorf("mlsearch: bad checkpoint line %q", line)
	}
	if p.seen[key] {
		return fmt.Errorf("mlsearch: duplicate checkpoint key %q", key)
	}
	var err error
	switch key {
	case "seed":
		p.cp.Seed, err = strconv.ParseInt(val, 10, 64)
	case "jumble":
		p.cp.Jumble, err = strconv.Atoi(val)
	case "phase":
		p.cp.Phase = val
	case "next":
		p.cp.NextIndex, err = strconv.Atoi(val)
	case "order":
		for _, f := range strings.Split(val, ",") {
			v, cerr := strconv.Atoi(strings.TrimSpace(f))
			if cerr != nil {
				return fmt.Errorf("mlsearch: bad checkpoint order: %w", cerr)
			}
			p.cp.Order = append(p.cp.Order, v)
		}
	case "tree":
		p.cp.Newick = val
	case "lnl":
		p.cp.LnL, err = strconv.ParseFloat(val, 64)
	default:
		return fmt.Errorf("mlsearch: unknown checkpoint key %q", key)
	}
	if err != nil {
		return fmt.Errorf("mlsearch: bad checkpoint %s: %w", key, err)
	}
	p.seen[key] = true
	return nil
}

func (p *checkpointParser) finish() (Checkpoint, error) {
	for _, key := range checkpointKeys {
		if !p.seen[key] {
			return p.cp, fmt.Errorf("mlsearch: checkpoint missing required key %q", key)
		}
	}
	return p.cp, nil
}

// ReadCheckpoint parses a flat "fastdnaml-checkpoint v1" file, the
// single-jumble restart format written before every restart file became
// a manifest (LoadResume still accepts one). It rejects duplicate and
// missing keys, naming the offending key.
func ReadCheckpoint(r io.Reader) (Checkpoint, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "fastdnaml-checkpoint v1" {
		return Checkpoint{}, fmt.Errorf("mlsearch: not a fastdnaml checkpoint")
	}
	p := newCheckpointParser()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return p.cp, err
		}
	}
	if err := sc.Err(); err != nil {
		return p.cp, err
	}
	return p.finish()
}

// Resume continues a search from a checkpoint. The configuration must
// describe the same data set; the checkpoint's order and tree take
// precedence over the seed-derived order.
func (s *Search) Resume(cp Checkpoint) (*SearchResult, error) {
	if err := cp.Validate(len(s.cfg.Taxa)); err != nil {
		return nil, err
	}
	tr, err := tree.ParseNewick(cp.Newick, s.cfg.Taxa)
	if err != nil {
		return nil, fmt.Errorf("mlsearch: checkpoint tree: %w", err)
	}
	if err := tr.Validate(true); err != nil {
		return nil, fmt.Errorf("mlsearch: checkpoint tree: %w", err)
	}
	// The tree must contain exactly the first NextIndex taxa of the order.
	inTree := tr.TaxaInTree()
	if len(inTree) != cp.NextIndex {
		return nil, fmt.Errorf("mlsearch: checkpoint tree has %d taxa, order position says %d", len(inTree), cp.NextIndex)
	}
	want := append([]int(nil), cp.Order[:cp.NextIndex]...)
	sort.Ints(want)
	for i := range want {
		if want[i] != inTree[i] {
			return nil, fmt.Errorf("mlsearch: checkpoint tree does not match the order prefix")
		}
	}
	if cp.Phase == PhaseDone {
		return &SearchResult{
			BestNewick: tr.Newick(),
			LnL:        cp.LnL,
			Order:      cp.Order,
			Seed:       cp.Seed,
		}, nil
	}
	return s.run(cp.Order, tr, cp.LnL, cp.NextIndex, cp.Phase == PhaseFinal)
}
