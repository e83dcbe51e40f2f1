package seq

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Patterns is an alignment compressed to its distinct site patterns.
// fastDNAml aliases identical alignment columns so the pruning algorithm
// evaluates each distinct pattern once and weights its log-likelihood by
// the pattern's multiplicity; this is the dominant constant-factor
// optimization for rRNA-scale data.
type Patterns struct {
	// Codes holds the compressed sites: Codes[i][p] is the code of
	// sequence i at pattern p.
	Codes [][]Code
	// Weights[p] is the total weight of the columns collapsed into
	// pattern p (the sum of the user weights, or the column count when
	// the weights are uniform).
	Weights []float64
	// SiteOf maps each original alignment column to its pattern index.
	SiteOf []int
	// Rates[p] is the relative evolutionary rate of pattern p
	// (1.0 everywhere unless per-site rates or categories are supplied).
	Rates []float64
}

// NumPatterns returns the number of distinct patterns.
func (p *Patterns) NumPatterns() int { return len(p.Weights) }

// NumSeqs returns the number of sequences.
func (p *Patterns) NumSeqs() int { return len(p.Codes) }

// TotalWeight returns the summed weight over all patterns.
func (p *Patterns) TotalWeight() float64 {
	t := 0.0
	for _, w := range p.Weights {
		t += w
	}
	return t
}

// CompressOptions control site-pattern compression.
type CompressOptions struct {
	// Weights assigns a non-negative weight to each alignment column.
	// Columns with zero weight are dropped. Nil means weight 1 everywhere.
	Weights []float64
	// Rates assigns a relative rate to each column (DNArates output or
	// category rates). Columns are only aliased when their rates are
	// equal. Nil means rate 1 everywhere.
	Rates []float64
	// Disable turns compression off: every column becomes its own
	// pattern. A test seam: the tests check that compression leaves
	// the patterns and the likelihood unchanged against it.
	Disable bool
}

// Compress collapses identical alignment columns into weighted patterns.
func Compress(a *Alignment, opt CompressOptions) (*Patterns, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	nsites := a.NumSites()
	nseqs := a.NumSeqs()
	if opt.Weights != nil && len(opt.Weights) != nsites {
		return nil, fmt.Errorf("seq: %d weights for %d sites", len(opt.Weights), nsites)
	}
	if opt.Rates != nil && len(opt.Rates) != nsites {
		return nil, fmt.Errorf("seq: %d rates for %d sites", len(opt.Rates), nsites)
	}
	weightAt := func(s int) float64 {
		if opt.Weights == nil {
			return 1
		}
		return opt.Weights[s]
	}
	rateAt := func(s int) float64 {
		if opt.Rates == nil {
			return 1
		}
		return opt.Rates[s]
	}
	// The join welcome's rule: a NaN weight would drop its column
	// silently, an infinite one make the lnL non-finite, and a NaN rate
	// break the column order that groups patterns.
	for s := 0; s < nsites; s++ {
		if w := weightAt(s); !(w >= 0 && !math.IsInf(w, 1)) {
			return nil, fmt.Errorf("seq: weight %g at site %d is not finite and non-negative", w, s+1)
		}
		if r := rateAt(s); !(r > 0 && !math.IsInf(r, 1)) {
			return nil, fmt.Errorf("seq: rate %g at site %d is not finite and positive", r, s+1)
		}
	}

	p := &Patterns{
		Codes:  make([][]Code, nseqs),
		SiteOf: make([]int, nsites),
	}
	for i := range p.Codes {
		p.Codes[i] = make([]Code, 0, nsites)
	}

	// Order columns by content so identical columns are adjacent; this
	// gives deterministic pattern order without hashing variable-length
	// keys.
	order := make([]int, 0, nsites)
	for s := 0; s < nsites; s++ {
		if weightAt(s) > 0 {
			order = append(order, s)
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("seq: all site weights are zero")
	}
	if !opt.Disable {
		// SiteOf is written only after the sort, so the sort borrows it.
		sortColumns(a, order, p.SiteOf, opt.Rates)
	}
	same := func(x, y int) bool {
		for i := 0; i < nseqs; i++ {
			if a.Data[i][x] != a.Data[i][y] {
				return false
			}
		}
		return rateAt(x) == rateAt(y)
	}

	for idx, s := range order {
		if idx == 0 || opt.Disable || !same(order[idx-1], s) {
			for i := 0; i < nseqs; i++ {
				p.Codes[i] = append(p.Codes[i], a.Data[i][s])
			}
			p.Weights = append(p.Weights, 0)
			p.Rates = append(p.Rates, rateAt(s))
		}
		pat := len(p.Weights) - 1
		p.Weights[pat] += weightAt(s)
		p.SiteOf[s] = pat
	}
	for s := 0; s < nsites; s++ {
		if weightAt(s) == 0 {
			p.SiteOf[s] = -1
		}
	}
	return p, nil
}

// sortColumns sorts order, a list of columns, by (row 0's code, …,
// last row's code, rate), stably, so equal columns keep their site
// order. It is a least-significant-digit radix sort: a stable sort by
// rate, when rates are given, then one counting pass per pair of rows
// from the last pair to the first, whose 8-bit digit holds row i's 4-bit
// code in its high nibble and row i+1's in its low one. The passes
// alternate between order and scratch, which must be at least as long.
func sortColumns(a *Alignment, order, scratch []int, rates []float64) {
	if rates != nil {
		slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(rates[x], rates[y]) })
	}
	src, dst := order, scratch[:len(order)]
	var start [256]int
	for lo := len(a.Data) - 1; lo >= 0; lo -= 2 {
		// With an odd row count the last pass reads row 0 as both
		// nibbles: 17·code orders as code does.
		hi, low := a.Data[max(lo-1, 0)], a.Data[lo]
		start = [256]int{}
		for _, s := range src {
			start[hi[s]<<4|low[s]]++
		}
		sum := 0
		for d, n := range start {
			start[d] = sum
			sum += n
		}
		for _, s := range src {
			d := hi[s]<<4 | low[s]
			dst[start[d]] = s
			start[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &order[0] {
		copy(order, src)
	}
}

// ExpandPerSite maps per-pattern values back onto the original alignment
// columns. Columns dropped by zero weight receive fill.
func (p *Patterns) ExpandPerSite(perPattern []float64, fill float64) ([]float64, error) {
	if len(perPattern) != p.NumPatterns() {
		return nil, fmt.Errorf("seq: %d values for %d patterns", len(perPattern), p.NumPatterns())
	}
	out := make([]float64, len(p.SiteOf))
	for s, pat := range p.SiteOf {
		if pat < 0 {
			out[s] = fill
		} else {
			out[s] = perPattern[pat]
		}
	}
	return out, nil
}
