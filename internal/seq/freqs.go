package seq

import (
	"fmt"
	"math/bits"
)

// BaseFreqs holds equilibrium base frequencies in A, C, G, T order.
type BaseFreqs [NumBases]float64

// Uniform returns equal frequencies of 0.25.
func Uniform() BaseFreqs { return BaseFreqs{0.25, 0.25, 0.25, 0.25} }

// Validate checks that the frequencies are positive and sum to ~1.
func (f BaseFreqs) Validate() error {
	sum := 0.0
	for i, v := range f {
		if !(v > 0) { // NaN is not positive either
			return fmt.Errorf("seq: frequency of %c is %g, must be positive", BaseName(i), v)
		}
		sum += v
	}
	if !(sum >= 0.999999 && sum <= 1.000001) {
		return fmt.Errorf("seq: frequencies sum to %g, want 1", sum)
	}
	return nil
}

// Normalize scales the frequencies to sum to 1.
func (f BaseFreqs) Normalize() BaseFreqs {
	sum := 0.0
	for _, v := range f {
		sum += v
	}
	if sum == 0 {
		return Uniform()
	}
	for i := range f {
		f[i] /= sum
	}
	return f
}

// EmpiricalFreqs estimates equilibrium base frequencies from the alignment
// by iterative proportional allocation of ambiguity codes, as fastDNAml's
// empiricalfreqs does: each ambiguous character contributes to the bases it
// is compatible with in proportion to the current frequency estimates.
// Characters compatible with all four bases (gaps, N) carry no information
// and are skipped. The paper (§2.1) notes that the base composition of the
// data is used as the default equilibrium frequencies.
func EmpiricalFreqs(a *Alignment) (BaseFreqs, error) {
	if err := a.Validate(); err != nil {
		return BaseFreqs{}, err
	}
	f := Uniform()
	const iterations = 8
	for it := 0; it < iterations; it++ {
		var counts BaseFreqs
		for i := range a.Data {
			for _, c := range a.Data[i] {
				if c == Any {
					continue
				}
				// Mass of the compatible bases under current estimate.
				mass := 0.0
				for b := 0; b < NumBases; b++ {
					if c&(1<<uint(b)) != 0 {
						mass += f[b]
					}
				}
				if mass == 0 {
					continue
				}
				for b := 0; b < NumBases; b++ {
					if c&(1<<uint(b)) != 0 {
						counts[b] += f[b] / mass
					}
				}
			}
		}
		total := counts[0] + counts[1] + counts[2] + counts[3]
		if total == 0 {
			return Uniform(), nil
		}
		for b := 0; b < NumBases; b++ {
			// Guard against degenerate alignments (e.g. a base absent
			// everywhere) which would make F84 ill-defined.
			f[b] = counts[b] / total
			if f[b] < 1e-6 {
				f[b] = 1e-6
			}
		}
		f = f.Normalize()
	}
	return f, nil
}

// EmpiricalFreqsPatterns estimates frequencies from compressed patterns,
// weighting each pattern by its multiplicity. Every dataset build runs it
// — each joining worker's, and the TCP master's check of what they will
// build — so the per-cell work is hoisted without changing a single sum:
// a code's compatible mass is tabulated once per iteration, and so is
// what an unambiguous base contributes at each pattern (the common cell,
// then one add); cells are still accumulated in the same order.
func EmpiricalFreqsPatterns(p *Patterns) BaseFreqs {
	f := Uniform()
	const iterations = 8
	single := make([]BaseFreqs, len(p.Weights))
	for it := 0; it < iterations; it++ {
		var mass [Any + 1]float64
		for c := range mass {
			for b := 0; b < NumBases; b++ {
				if c&(1<<uint(b)) != 0 {
					mass[c] += f[b]
				}
			}
		}
		for s, w := range p.Weights {
			for b := 0; b < NumBases; b++ {
				single[s][b] = w * f[b] / mass[1<<uint(b)]
			}
		}
		var counts BaseFreqs
		for i := range p.Codes {
			for s, c := range p.Codes[i] {
				if c == Any || c > Any || mass[c] == 0 {
					continue
				}
				if c&(c-1) == 0 {
					b := bits.TrailingZeros8(uint8(c))
					counts[b] += single[s][b]
					continue
				}
				w := p.Weights[s]
				for b := 0; b < NumBases; b++ {
					if c&(1<<uint(b)) != 0 {
						counts[b] += w * f[b] / mass[c]
					}
				}
			}
		}
		total := counts[0] + counts[1] + counts[2] + counts[3]
		if total == 0 {
			return Uniform()
		}
		for b := 0; b < NumBases; b++ {
			f[b] = counts[b] / total
			if f[b] < 1e-6 {
				f[b] = 1e-6
			}
		}
		f = f.Normalize()
	}
	return f
}
