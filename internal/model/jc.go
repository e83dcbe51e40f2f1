package model

import "repro/internal/seq"

// NewJC69 builds the Jukes-Cantor 1969 model: uniform frequencies, all
// changes equally likely. P_ij(z) = 1/4 + (δ_ij − 1/4)·exp(−4z/3).
func NewJC69() Model {
	var c0, c1 PMatrix
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			c0[i][j] = 0.25
			c1[i][j] = -0.25
			if i == j {
				c1[i][j] = 0.75
			}
		}
	}
	return &numbers{name: "JC69", freqs: seq.Uniform(), decomp: Decomposition{
		Lambda: []float64{0, -4.0 / 3.0},
		Coef:   []PMatrix{c0, c1},
	}}
}
