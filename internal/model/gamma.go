package model

import (
	"fmt"
	"math"
)

// Discrete gamma rate heterogeneity (Yang 1994): site rates are drawn from
// a mean-1 gamma distribution with shape alpha, discretized into k
// equal-probability categories each represented by its mean. fastDNAml of
// the paper's era handled rate heterogeneity through user-supplied
// categories; the gamma discretization generates those categories from a
// single shape parameter and is listed among the planned generalizations
// (paper §5).

// DiscreteGamma returns the k mean-of-category relative rates for a
// gamma(alpha, alpha) distribution (mean 1). The returned rates average
// exactly 1 up to numerical precision.
func DiscreteGamma(alpha float64, k int) ([]float64, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("model: gamma shape %g, must be positive", alpha)
	}
	if k < 1 {
		return nil, fmt.Errorf("model: %d gamma categories, must be >= 1", k)
	}
	if k == 1 {
		return []float64{1}, nil
	}
	// Category boundaries at quantiles i/k of Gamma(shape=alpha, rate=alpha).
	bounds := make([]float64, k+1)
	bounds[0] = 0
	bounds[k] = math.Inf(1)
	for i := 1; i < k; i++ {
		q, err := gammaQuantile(alpha, float64(i)/float64(k))
		if err != nil {
			return nil, err
		}
		bounds[i] = q / alpha // quantile of rate-alpha gamma
	}
	// Mean within each category: k·(P(alpha+1, alpha·b) − P(alpha+1, alpha·a)).
	rates := make([]float64, k)
	prev := 0.0
	for i := 0; i < k; i++ {
		var next float64
		if i == k-1 {
			next = 1
		} else {
			next = regIncGammaLower(alpha+1, alpha*bounds[i+1])
		}
		rates[i] = float64(k) * (next - prev)
		prev = next
	}
	// Renormalize to mean exactly 1 (guards tiny numeric drift).
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	for i := range rates {
		rates[i] *= float64(k) / sum
		if rates[i] <= 0 {
			return nil, fmt.Errorf("model: non-positive gamma category rate (alpha=%g, k=%d)", alpha, k)
		}
	}
	return rates, nil
}

// gammaQuantile returns the p-quantile of a Gamma(shape=a, rate=1)
// distribution by bisection on the regularized lower incomplete gamma.
func gammaQuantile(a, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("model: gamma quantile probability %g outside (0,1)", p)
	}
	lo, hi := 0.0, a+10
	for regIncGammaLower(a, hi) < p {
		hi *= 2
		if hi > 1e12 {
			return 0, fmt.Errorf("model: gamma quantile did not bracket (a=%g, p=%g)", a, p)
		}
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if regIncGammaLower(a, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// regIncGammaLower computes the regularized lower incomplete gamma
// function P(a, x) by series expansion for x < a+1 and by continued
// fraction for the complement otherwise (Numerical Recipes gammp).
func regIncGammaLower(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaContinuedFraction(a, x)
	}
}

func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del = float64(del * (x / ap))
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+float64(a*math.Log(x))-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = float64(an*d) + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+float64(a*math.Log(x))-lg) * h
}
