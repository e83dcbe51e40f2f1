package seq

import (
	"fmt"
	"strings"
)

// Alignment is a set of equal-length coded DNA sequences.
type Alignment struct {
	// Names holds one label per sequence, in input order.
	Names []string
	// Data holds the coded sites: Data[i][s] is the code of sequence i at
	// alignment column s.
	Data [][]Code
}

// NewAlignment creates an empty alignment with capacity for n sequences.
func NewAlignment(n int) *Alignment {
	return &Alignment{
		Names: make([]string, 0, n),
		Data:  make([][]Code, 0, n),
	}
}

// NumSeqs returns the number of sequences.
func (a *Alignment) NumSeqs() int { return len(a.Data) }

// NumSites returns the number of alignment columns (0 for an empty
// alignment).
func (a *Alignment) NumSites() int {
	if len(a.Data) == 0 {
		return 0
	}
	return len(a.Data[0])
}

// Add appends a sequence given as an ASCII string. Whitespace within the
// string is ignored, so callers may pass blocked sequence text directly.
func (a *Alignment) Add(name, bases string) error {
	coded := make([]Code, 0, len(bases))
	for i := 0; i < len(bases); i++ {
		ch := bases[i]
		if ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' {
			continue
		}
		c, err := ParseBase(ch)
		if err != nil {
			return fmt.Errorf("sequence %q, position %d: %w", name, i+1, err)
		}
		coded = append(coded, c)
	}
	return a.AddCoded(name, coded)
}

// AddCoded appends an already coded sequence.
func (a *Alignment) AddCoded(name string, coded []Code) error {
	if n := a.NumSites(); len(a.Data) > 0 && len(coded) != n {
		return fmt.Errorf("seq: sequence %q has %d sites, want %d", name, len(coded), n)
	}
	a.Names = append(a.Names, name)
	a.Data = append(a.Data, coded)
	return nil
}

// Validate checks structural invariants: at least one sequence, equal
// lengths, non-empty unique names, and valid codes.
func (a *Alignment) Validate() error {
	if len(a.Data) == 0 {
		return fmt.Errorf("seq: alignment has no sequences")
	}
	if len(a.Names) != len(a.Data) {
		return fmt.Errorf("seq: %d names for %d sequences", len(a.Names), len(a.Data))
	}
	n := len(a.Data[0])
	if n == 0 {
		return fmt.Errorf("seq: alignment has no sites")
	}
	seen := make(map[string]bool, len(a.Names))
	for i, name := range a.Names {
		if name == "" {
			return fmt.Errorf("seq: sequence %d has an empty name", i+1)
		}
		if seen[name] {
			return fmt.Errorf("seq: duplicate sequence name %q", name)
		}
		seen[name] = true
		if len(a.Data[i]) != n {
			return fmt.Errorf("seq: sequence %q has %d sites, want %d", name, len(a.Data[i]), n)
		}
		for s, c := range a.Data[i] {
			if c == 0 || c > Any {
				return fmt.Errorf("seq: sequence %q has invalid code %d at site %d", name, c, s+1)
			}
		}
	}
	return nil
}

// Index returns the position of the named sequence, or -1.
func (a *Alignment) Index(name string) int {
	for i, n := range a.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Row returns the ASCII rendering of sequence i.
func (a *Alignment) Row(i int) string {
	var b strings.Builder
	b.Grow(len(a.Data[i]))
	for _, c := range a.Data[i] {
		b.WriteByte(c.Char())
	}
	return b.String()
}

// Clone returns a deep copy of the alignment.
func (a *Alignment) Clone() *Alignment {
	out := NewAlignment(len(a.Data))
	out.Names = append(out.Names, a.Names...)
	for _, row := range a.Data {
		cp := make([]Code, len(row))
		copy(cp, row)
		out.Data = append(out.Data, cp)
	}
	return out
}
