package model

import (
	"fmt"

	"repro/internal/seq"
)

// F84 is the Felsenstein 1984 model as parameterized by DNAml and
// fastDNAml: empirical base frequencies plus a transition/transversion
// ratio R. Following fastDNAml's getbasefreqs:
//
//	πR = πA+πG, πY = πC+πT
//	aa = R·πR·πY − πAπG − πCπT
//	bb = πAπG/πR + πCπT/πY
//	xi = aa/(aa+bb), xv = 1−xi
//	fracchange = xi·(2πAπG/πR + 2πCπT/πY) + xv·(1 − Σπ²)
//
// and the transition matrix uses two exponentials, exp(−xv·z/fracchange)
// and exp(−z/fracchange), making the expected substitution rate exactly 1
// per unit branch length.
type F84 struct {
	freqs   seq.BaseFreqs
	ratio   float64 // the (possibly adjusted) transition/transversion ratio
	xi, xv  float64
	frac    float64 // fracchange
	decomp  Decomposition
	adjust  bool // whether the ratio was raised to keep xi positive
	origRat float64
}

// DefaultTTRatio is fastDNAml's default transition/transversion ratio.
const DefaultTTRatio = 2.0

// NewF84 builds an F84 model from equilibrium frequencies and a
// transition/transversion ratio. As in fastDNAml, a ratio too small for
// the given frequencies (making the transition fraction non-positive) is
// raised to the smallest valid value; Adjusted reports when that happened.
func NewF84(freqs seq.BaseFreqs, ttratio float64) (*F84, error) {
	if err := freqs.Validate(); err != nil {
		return nil, err
	}
	if ttratio <= 0 {
		return nil, fmt.Errorf("model: transition/transversion ratio %g, must be positive", ttratio)
	}
	m := &F84{freqs: freqs, origRat: ttratio, ratio: ttratio}
	piA, piC, piG, piT := freqs[0], freqs[1], freqs[2], freqs[3]
	piR := piA + piG
	piY := piC + piT
	minRatio := (float64(piA*piG) + float64(piC*piT)) / (piR * piY)
	if m.ratio <= minRatio {
		m.ratio = minRatio * 1.000001
		m.adjust = true
	}
	aa := float64(m.ratio*piR*piY) - float64(piA*piG) - float64(piC*piT)
	bb := piA*piG/piR + piC*piT/piY
	m.xi = aa / (aa + bb)
	m.xv = 1 - m.xi
	sumsq := float64(piA*piA) + float64(piC*piC) + float64(piG*piG) + float64(piT*piT)
	m.frac = float64(m.xi*(2*piA*piG/piR+2*piC*piT/piY)) + float64(m.xv*(1-sumsq))
	if m.frac <= 0 {
		return nil, fmt.Errorf("model: degenerate F84 parameters (fracchange %g)", m.frac)
	}

	// Spectral expansion: P_ij(z) = π_j
	//   + e1·( [same group]·π_j/Π_j − π_j )
	//   + e2·( δ_ij − [same group]·π_j/Π_j )
	// with e1 = exp(−xv·z/frac), e2 = exp(−z/frac).
	group := [4]float64{piR, piY, piR, piY} // Π_j per base j
	var c0, c1, c2 PMatrix
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c0[i][j] = freqs[j]
			if sameGroup(i, j) {
				c1[i][j] = freqs[j]/group[j] - freqs[j]
				c2[i][j] = -freqs[j] / group[j]
			} else {
				c1[i][j] = -freqs[j]
			}
			if i == j {
				c2[i][j] += 1
			}
		}
	}
	m.decomp = Decomposition{
		Lambda: []float64{0, -m.xv / m.frac, -1 / m.frac},
		Coef:   []PMatrix{c0, c1, c2},
	}
	return m, nil
}

// Name implements Model.
func (m *F84) Name() string { return "F84" }

// Freqs implements Model.
func (m *F84) Freqs() seq.BaseFreqs { return m.freqs }

// Decomposition implements Model.
func (m *F84) Decomposition() *Decomposition { return &m.decomp }

// Ratio returns the effective transition/transversion ratio (after any
// adjustment).
func (m *F84) Ratio() float64 { return m.ratio }

// Adjusted reports whether the requested ratio was raised to keep the
// transition fraction positive, as fastDNAml does.
func (m *F84) Adjusted() bool { return m.adjust }

// TransitionFraction returns xi, the fraction of the substitution rate
// attributable to within-group (transition) events.
func (m *F84) TransitionFraction() float64 { return m.xi }
