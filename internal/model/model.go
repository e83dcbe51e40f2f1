// Package model implements the nucleotide substitution models used by
// fastDNAml and its planned extensions (paper §5 "more general models of
// nucleotide change"): F84 (the model of DNAml/fastDNAml), JC69, K80, and
// HKY85, plus discrete-gamma rate heterogeneity.
//
// Every model is exposed through its spectral decomposition
//
//	P(z) = Σ_k C_k · exp(λ_k · z)
//
// with λ_0 = 0 and λ_k < 0, normalized so that branch length z is the
// expected number of substitutions per site. The decomposition makes the
// transition matrix and its first two derivatives (needed by the Newton
// branch-length optimizer) closed-form for any model.
//
// Every product that feeds a sum is rounded by an explicit float64(…),
// so no compiler fuses it into a multiply-add and the models give the
// same bits on every architecture (`make nofma`).
package model

import (
	"fmt"
	"math"

	"repro/internal/seq"
)

// PMatrix is a 4x4 transition probability (or coefficient) matrix indexed
// [from][to] in A, C, G, T order.
type PMatrix [4][4]float64

// Decomposition is the spectral expansion of a reversible substitution
// model's transition matrix.
type Decomposition struct {
	// Lambda holds the eigenvalue rates; Lambda[0] must be 0 and the
	// rest negative.
	Lambda []float64
	// Coef[k] is the coefficient matrix attached to exp(Lambda[k]*z).
	Coef []PMatrix
}

// Model is a rate-normalized reversible nucleotide substitution model.
type Model interface {
	// Name identifies the model ("F84", "JC69", ...).
	Name() string
	// Freqs returns the equilibrium base frequencies.
	Freqs() seq.BaseFreqs
	// Decomposition returns the spectral expansion of the model. The
	// returned value must not be modified.
	Decomposition() *Decomposition
}

// Probs fills p with the transition probabilities for branch length z at
// relative site rate r (effective length z*r).
func (d *Decomposition) Probs(z, r float64, p *PMatrix) {
	t := z * r
	for i := range p {
		for j := range p[i] {
			p[i][j] = 0
		}
	}
	for k, lam := range d.Lambda {
		e := math.Exp(lam * t)
		c := &d.Coef[k]
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				p[i][j] += float64(c[i][j] * e)
			}
		}
	}
}

// ProbsDeriv fills p, dp, and ddp with the transition probabilities and
// their first and second derivatives with respect to z, at relative site
// rate r.
func (d *Decomposition) ProbsDeriv(z, r float64, p, dp, ddp *PMatrix) {
	t := z * r
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			p[i][j], dp[i][j], ddp[i][j] = 0, 0, 0
		}
	}
	for k, lam := range d.Lambda {
		e := math.Exp(lam * t)
		l1 := lam * r
		l2 := l1 * l1
		c := &d.Coef[k]
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				v := float64(c[i][j] * e)
				p[i][j] += v
				dp[i][j] += float64(l1 * v)
				ddp[i][j] += float64(l2 * v)
			}
		}
	}
}

// Validate checks decomposition sanity: λ_0 = 0, λ_k < 0, rows of P(0)
// forming the identity, row-stochastic P at a few lengths, and detailed
// balance π_i P_ij = π_j P_ji. Every comparison is written so that a NaN
// fails it: the numbers may come from outside the program.
func Validate(m Model) error {
	d := m.Decomposition()
	if len(d.Lambda) == 0 || len(d.Lambda) != len(d.Coef) {
		return fmt.Errorf("model %s: malformed decomposition", m.Name())
	}
	if d.Lambda[0] != 0 {
		return fmt.Errorf("model %s: Lambda[0] = %g, want 0", m.Name(), d.Lambda[0])
	}
	for _, l := range d.Lambda[1:] {
		if !(l < 0) {
			return fmt.Errorf("model %s: non-negative eigenvalue %g", m.Name(), l)
		}
	}
	freqs := m.Freqs()
	if err := freqs.Validate(); err != nil {
		return fmt.Errorf("model %s: %w", m.Name(), err)
	}
	var p PMatrix
	for _, z := range []float64{0, 0.01, 0.3, 2.5} {
		d.Probs(z, 1, &p)
		for i := 0; i < 4; i++ {
			row := 0.0
			for j := 0; j < 4; j++ {
				if !(p[i][j] >= -1e-12) {
					return fmt.Errorf("model %s: P[%d][%d](%g) = %g < 0", m.Name(), i, j, z, p[i][j])
				}
				row += p[i][j]
			}
			if !(math.Abs(row-1) <= 1e-9) {
				return fmt.Errorf("model %s: row %d of P(%g) sums to %g", m.Name(), i, z, row)
			}
			if z == 0 {
				for j := 0; j < 4; j++ {
					want := 0.0
					if i == j {
						want = 1
					}
					if !(math.Abs(p[i][j]-want) <= 1e-9) {
						return fmt.Errorf("model %s: P(0)[%d][%d] = %g", m.Name(), i, j, p[i][j])
					}
				}
			}
		}
		// Detailed balance (time reversibility).
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if diff := float64(freqs[i]*p[i][j]) - float64(freqs[j]*p[j][i]); !(math.Abs(diff) <= 1e-9) {
					return fmt.Errorf("model %s: detailed balance violated at z=%g (%d,%d): %g", m.Name(), z, i, j, diff)
				}
			}
		}
	}
	// Rate normalization: -Σ_i π_i * dP_ii/dz at z=0 must be 1.
	var p0, dp0, ddp0 PMatrix
	d.ProbsDeriv(0, 1, &p0, &dp0, &ddp0)
	rate := 0.0
	for i := 0; i < 4; i++ {
		rate -= float64(freqs[i] * dp0[i][i])
	}
	if !(math.Abs(rate-1) <= 1e-9) {
		return fmt.Errorf("model %s: expected rate %g per unit branch length, want 1", m.Name(), rate)
	}
	return nil
}

// numbers is a model held as the numbers every engine computes from —
// name, equilibrium frequencies and spectral decomposition — rather than
// as the parameters that produced them.
type numbers struct {
	name   string
	freqs  seq.BaseFreqs
	decomp Decomposition
}

func (m *numbers) Name() string                  { return m.name }
func (m *numbers) Freqs() seq.BaseFreqs          { return m.freqs }
func (m *numbers) Decomposition() *Decomposition { return &m.decomp }

// FromDecomposition is the model a peer described by its numbers: what
// another process's Model returned from Name, Freqs and Decomposition.
// They are outside input, so the model must pass Validate.
func FromDecomposition(name string, freqs seq.BaseFreqs, d Decomposition) (Model, error) {
	m := &numbers{name: name, freqs: freqs, decomp: d}
	if err := Validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

// purine reports whether base index b (0..3 = ACGT) is a purine (A or G).
func purine(b int) bool { return b == 0 || b == 2 }

// sameGroup reports whether bases i and j are both purines or both
// pyrimidines.
func sameGroup(i, j int) bool { return purine(i) == purine(j) }
