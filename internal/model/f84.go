package model

import (
	"fmt"

	"repro/internal/seq"
)

// DefaultTTRatio is fastDNAml's default transition/transversion ratio.
const DefaultTTRatio = 2.0

// NewF84 builds the Felsenstein 1984 model as parameterized by DNAml and
// fastDNAml: equilibrium base frequencies plus a transition/transversion
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
// per unit branch length. As in fastDNAml, a ratio too small for the
// given frequencies (making the transition fraction non-positive) is
// raised to just above the smallest valid value.
func NewF84(freqs seq.BaseFreqs, ttratio float64) (Model, error) {
	if err := freqs.Validate(); err != nil {
		return nil, err
	}
	if ttratio <= 0 {
		return nil, fmt.Errorf("model: transition/transversion ratio %g, must be positive", ttratio)
	}
	piA, piC, piG, piT := freqs[0], freqs[1], freqs[2], freqs[3]
	piR := piA + piG
	piY := piC + piT
	minRatio := (float64(piA*piG) + float64(piC*piT)) / (piR * piY)
	if ttratio <= minRatio {
		ttratio = minRatio * 1.000001
	}
	aa := float64(ttratio*piR*piY) - float64(piA*piG) - float64(piC*piT)
	bb := piA*piG/piR + piC*piT/piY
	xi := aa / (aa + bb)
	xv := 1 - xi
	sumsq := float64(piA*piA) + float64(piC*piC) + float64(piG*piG) + float64(piT*piT)
	frac := float64(xi*(2*piA*piG/piR+2*piC*piT/piY)) + float64(xv*(1-sumsq))
	if frac <= 0 {
		return nil, fmt.Errorf("model: degenerate F84 parameters (fracchange %g)", frac)
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
	return &numbers{name: "F84", freqs: freqs, decomp: Decomposition{
		Lambda: []float64{0, -xv / frac, -1 / frac},
		Coef:   []PMatrix{c0, c1, c2},
	}}, nil
}
