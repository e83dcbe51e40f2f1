package model

import (
	"fmt"
	"math"

	"repro/internal/seq"
)

// GTR is the general time-reversible model: arbitrary equilibrium
// frequencies and six exchangeability parameters, the most general of the
// "more general models of nucleotide change" the paper plans (§5). Its
// transition matrix has no closed form, so the spectral decomposition is
// computed numerically: the rate matrix is similarity-transformed to a
// symmetric matrix via the equilibrium frequencies and diagonalized with
// Jacobi rotations (exact for reversible models).
type GTR struct {
	freqs  seq.BaseFreqs
	rates  GTRRates
	decomp Decomposition
}

// GTRRates holds the six exchangeabilities in the conventional order.
type GTRRates struct {
	AC, AG, AT, CG, CT, GT float64
}

// NewGTR builds a rate-normalized GTR model. All exchangeabilities must
// be positive; (1,1,1,1,1,1) with uniform frequencies reduces to JC69.
func NewGTR(freqs seq.BaseFreqs, r GTRRates) (*GTR, error) {
	if err := freqs.Validate(); err != nil {
		return nil, err
	}
	ex := [4][4]float64{}
	pairs := []struct {
		i, j int
		v    float64
	}{
		{0, 1, r.AC}, {0, 2, r.AG}, {0, 3, r.AT},
		{1, 2, r.CG}, {1, 3, r.CT}, {2, 3, r.GT},
	}
	for _, p := range pairs {
		if p.v <= 0 {
			return nil, fmt.Errorf("model: non-positive GTR exchangeability between %c and %c",
				seq.BaseName(p.i), seq.BaseName(p.j))
		}
		ex[p.i][p.j] = p.v
		ex[p.j][p.i] = p.v
	}

	// Rate matrix Q[i][j] = ex[i][j] * pi[j], rows summing to zero.
	var q [4][4]float64
	for i := 0; i < 4; i++ {
		row := 0.0
		for j := 0; j < 4; j++ {
			if i != j {
				q[i][j] = float64(ex[i][j] * freqs[j])
				row += q[i][j]
			}
		}
		q[i][i] = -row
	}
	// Normalize to one expected substitution per unit branch length.
	mu := 0.0
	for i := 0; i < 4; i++ {
		mu -= float64(freqs[i] * q[i][i])
	}
	if mu <= 0 {
		return nil, fmt.Errorf("model: degenerate GTR rate matrix")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			q[i][j] /= mu
		}
	}

	// Symmetrize: S = D^{1/2} Q D^{-1/2} with D = diag(pi); S is
	// symmetric for reversible Q and shares its eigenvalues.
	var s [4][4]float64
	var sqrtPi, invSqrtPi [4]float64
	for i := 0; i < 4; i++ {
		sqrtPi[i] = math.Sqrt(freqs[i])
		invSqrtPi[i] = 1 / sqrtPi[i]
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s[i][j] = sqrtPi[i] * q[i][j] * invSqrtPi[j]
		}
	}

	lambda, v, err := jacobiEigen4(s)
	if err != nil {
		return nil, err
	}

	// Coefficient matrices: C_k[i][j] = (D^{-1/2} V)[i][k] * (V^T D^{1/2})[k][j].
	d := Decomposition{}
	// Order eigenvalues with the ~0 one first, as Decomposition requires.
	order := []int{0, 1, 2, 3}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if lambda[order[b]] > lambda[order[a]] {
				order[a], order[b] = order[b], order[a]
			}
		}
	}
	for ki, k := range order {
		lam := lambda[k]
		if ki == 0 {
			// The equilibrium eigenvalue is 0 up to roundoff.
			if math.Abs(lam) > 1e-9 {
				return nil, fmt.Errorf("model: GTR leading eigenvalue %g, want 0", lam)
			}
			lam = 0
		} else if lam >= 0 {
			return nil, fmt.Errorf("model: GTR eigenvalue %g, want negative", lam)
		}
		var c PMatrix
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				c[i][j] = invSqrtPi[i] * v[i][k] * v[j][k] * sqrtPi[j]
			}
		}
		d.Lambda = append(d.Lambda, lam)
		d.Coef = append(d.Coef, c)
	}
	return &GTR{freqs: freqs, rates: r, decomp: d}, nil
}

// Name implements Model.
func (m *GTR) Name() string { return "GTR" }

// Freqs implements Model.
func (m *GTR) Freqs() seq.BaseFreqs { return m.freqs }

// Decomposition implements Model.
func (m *GTR) Decomposition() *Decomposition { return &m.decomp }

// Rates returns the exchangeabilities.
func (m *GTR) Rates() GTRRates { return m.rates }

// jacobiEigen4 diagonalizes a symmetric 4x4 matrix by cyclic Jacobi
// rotations, returning eigenvalues and the orthogonal eigenvector matrix
// (columns are eigenvectors).
func jacobiEigen4(a [4][4]float64) (eig [4]float64, v [4][4]float64, err error) {
	for i := 0; i < 4; i++ {
		v[i][i] = 1
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				off += float64(a[i][j] * a[i][j])
			}
		}
		if off < 1e-30 {
			for i := 0; i < 4; i++ {
				eig[i] = a[i][i]
			}
			return eig, v, nil
		}
		for p := 0; p < 4; p++ {
			for q := p + 1; q < 4; q++ {
				if math.Abs(a[p][q]) < 1e-300 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				// Apply rotation G(p,q,theta): A' = G^T A G, V' = V G.
				var ap, aq [4]float64
				for k := 0; k < 4; k++ {
					ap[k] = a[k][p]
					aq[k] = a[k][q]
				}
				for k := 0; k < 4; k++ {
					a[k][p] = float64(c*ap[k]) - float64(s*aq[k])
					a[k][q] = float64(s*ap[k]) + float64(c*aq[k])
				}
				for k := 0; k < 4; k++ {
					ap[k] = a[p][k]
					aq[k] = a[q][k]
				}
				for k := 0; k < 4; k++ {
					a[p][k] = float64(c*ap[k]) - float64(s*aq[k])
					a[q][k] = float64(s*ap[k]) + float64(c*aq[k])
				}
				for k := 0; k < 4; k++ {
					vp := v[k][p]
					vq := v[k][q]
					v[k][p] = float64(c*vp) - float64(s*vq)
					v[k][q] = float64(s*vp) + float64(c*vq)
				}
			}
		}
	}
	return eig, v, fmt.Errorf("model: Jacobi iteration did not converge")
}
