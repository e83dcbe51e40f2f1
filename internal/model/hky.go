package model

import (
	"fmt"

	"repro/internal/seq"
)

// NewHKY85 builds the Hasegawa-Kishino-Yano 1985 model: arbitrary
// equilibrium frequencies with a transition rate multiplier kappa
// (kappa = 1 reduces to F81/JC-style equal treatment of all changes).
// K80 (Kimura two parameter) is HKY85 with uniform frequencies, and JC69
// is K80 with kappa = 1. HKY85 is one of the "more general models of
// nucleotide change" the paper lists as a priority extension (§5).
func NewHKY85(freqs seq.BaseFreqs, kappa float64) (Model, error) {
	return newHKY("HKY85", freqs, kappa)
}

// NewK80 builds a Kimura 1980 model (uniform frequencies) with transition
// rate multiplier kappa.
func NewK80(kappa float64) (Model, error) {
	return newHKY("K80", seq.Uniform(), kappa)
}

func newHKY(name string, freqs seq.BaseFreqs, kappa float64) (Model, error) {
	if err := freqs.Validate(); err != nil {
		return nil, err
	}
	if kappa <= 0 {
		return nil, fmt.Errorf("model: kappa %g, must be positive", kappa)
	}
	piA, piC, piG, piT := freqs[0], freqs[1], freqs[2], freqs[3]
	piR := piA + piG
	piY := piC + piT

	// Normalize so the expected substitution rate is 1:
	// rate = β·[2(πAπC+πAπT+πCπG+πGπT) + 2κ(πAπG+πCπT)].
	tv := 2 * (float64(piA*piC) + float64(piA*piT) + float64(piC*piG) + float64(piG*piT))
	ts := 2 * (float64(piA*piG) + float64(piC*piT))
	beta := 1 / (tv + float64(kappa*ts))

	// Eigenvalues: 0, −β (general), −β(πY·κ+πR) for pyrimidine-group
	// transitions, −β(πR·κ+πY) for purine-group transitions.
	lamGen := -beta
	lamR := -beta * (float64(piR*kappa) + piY)
	lamY := -beta * (float64(piY*kappa) + piR)

	group := [4]float64{piR, piY, piR, piY}
	var c0, cGen, cR, cY PMatrix
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c0[i][j] = freqs[j]
			if sameGroup(i, j) {
				cGen[i][j] = freqs[j] * (1/group[j] - 1)
				var cg *PMatrix
				if purine(j) {
					cg = &cR
				} else {
					cg = &cY
				}
				if i == j {
					cg[i][j] = (group[j] - freqs[j]) / group[j]
				} else {
					cg[i][j] = -freqs[j] / group[j]
				}
			} else {
				cGen[i][j] = -freqs[j]
			}
		}
	}
	return &numbers{name: name, freqs: freqs, decomp: Decomposition{
		Lambda: []float64{0, lamGen, lamR, lamY},
		Coef:   []PMatrix{c0, cGen, cR, cY},
	}}, nil
}
