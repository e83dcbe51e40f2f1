// Package seq provides DNA sequence alignments for maximum likelihood
// phylogenetic inference: IUPAC nucleotide coding, PHYLIP input, PHYLIP
// and FASTA output, site-pattern compression, and empirical base
// frequency estimation.
//
// Sequences are stored as 4-bit presence masks (one per site) so that
// ambiguity codes and gaps are handled uniformly by the likelihood core:
// a tip's conditional likelihood for base b is 1 when bit b is set in the
// mask and 0 otherwise. A gap or fully ambiguous code has all four bits set
// and therefore carries no information, which is fastDNAml's treatment of
// gaps as missing data.
package seq

import "fmt"

// Code is a 4-bit nucleotide presence mask. Bit 0 is A, bit 1 is C,
// bit 2 is G, and bit 3 is T (and U). The zero value is invalid; every
// site of a parsed alignment has at least one bit set.
type Code byte

// Single-base codes and the fully ambiguous code.
const (
	A Code = 1 << iota
	C
	G
	T
	// Any is the fully ambiguous code used for N, X, ?, and gaps.
	Any Code = A | C | G | T
)

// NumBases is the alphabet size of the nucleotide models.
const NumBases = 4

// codeOf maps ASCII characters to codes. Unmapped characters are 0.
var codeOf [256]Code

// charOf maps each of the 16 code values back to its canonical IUPAC letter.
var charOf [16]byte

func init() {
	set := func(ch byte, c Code) {
		codeOf[ch] = c
		lower := ch + 'a' - 'A'
		if ch >= 'A' && ch <= 'Z' {
			codeOf[lower] = c
		}
	}
	set('A', A)
	set('C', C)
	set('G', G)
	set('T', T)
	set('U', T)
	set('M', A|C)
	set('R', A|G)
	set('W', A|T)
	set('S', C|G)
	set('Y', C|T)
	set('K', G|T)
	set('V', A|C|G)
	set('H', A|C|T)
	set('D', A|G|T)
	set('B', C|G|T)
	set('N', Any)
	set('X', Any)
	codeOf['?'] = Any
	codeOf['-'] = Any
	codeOf['.'] = Any
	codeOf['O'] = Any // old PHYLIP "deletion" state, treated as missing

	letters := map[Code]byte{
		A: 'A', C: 'C', G: 'G', T: 'T',
		A | C: 'M', A | G: 'R', A | T: 'W',
		C | G: 'S', C | T: 'Y', G | T: 'K',
		A | C | G: 'V', A | C | T: 'H', A | G | T: 'D', C | G | T: 'B',
		Any: 'N',
	}
	for c, ch := range letters {
		charOf[c] = ch
	}
}

// ParseBase converts an ASCII nucleotide character (IUPAC, case
// insensitive, with '-', '.', '?' as missing) to its Code.
// It reports an error for characters outside the alphabet.
func ParseBase(ch byte) (Code, error) {
	c := codeOf[ch]
	if c == 0 {
		return 0, fmt.Errorf("seq: invalid nucleotide character %q", ch)
	}
	return c, nil
}

// IsBaseChar reports whether ch is a recognized nucleotide character.
func IsBaseChar(ch byte) bool { return codeOf[ch] != 0 }

// Char returns the canonical IUPAC letter for c ('N' for Any).
// It returns '?' for the invalid zero code.
func (c Code) Char() byte {
	if c == 0 || c > Any {
		return '?'
	}
	return charOf[c]
}

// Count returns the number of bases compatible with c (1..4).
func (c Code) Count() int {
	n := 0
	for b := 0; b < NumBases; b++ {
		if c&(1<<uint(b)) != 0 {
			n++
		}
	}
	return n
}

// String implements fmt.Stringer.
func (c Code) String() string { return string(c.Char()) }

// BaseName returns the canonical letter of base index i (0..3).
func BaseName(i int) byte { return [NumBases]byte{'A', 'C', 'G', 'T'}[i] }
