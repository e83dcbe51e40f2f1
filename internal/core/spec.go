package core

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/likelihood"
	"repro/internal/mlsearch"
	"repro/internal/model"
)

// Spec is everything about an inference that decides its result: the
// substitution model, the orderings, the rearrangement extents and the
// evaluation identity. It is the fastdnaml CLI's model and search flags,
// the library's Options.Spec and a fastdnamld job's "options" object —
// one type and, in Normalize, one table of spellings, defaults and range
// checks, so the three front doors accept and refuse the same things.
// The zero value of every field selects its default.
type Spec struct {
	// Model selects the substitution model: F84 (fastDNAml's model, the
	// default), JC69, K80, HKY85, or GTR (§5's "more general models of
	// nucleotide change").
	Model string `json:"model,omitempty"`
	// TTRatio is the F84 transition/transversion ratio (default 2.0).
	TTRatio float64 `json:"ttratio,omitempty"`
	// Kappa is the K80/HKY85 transition rate multiplier (default 2.0).
	Kappa float64 `json:"kappa,omitempty"`
	// GTRRates are the six GTR exchangeabilities ac,ag,at,cg,ct,gt
	// (empty = all 1, i.e. F81-like behaviour).
	GTRRates []float64 `json:"gtr_rates,omitempty"`
	// Jumbles is the number of random taxon orderings analyzed
	// (default 1). Biologists typically analyze tens to thousands and
	// compare the best trees (paper §2).
	Jumbles int `json:"jumbles,omitempty"`
	// Seed drives the orderings; even seeds are adjusted as in
	// fastDNAml (§2.1).
	Seed int64 `json:"seed,omitempty"`
	// Extent is the number of vertices crossed in the local
	// rearrangements after each taxon addition (default 1; the paper's
	// performance tests use 5).
	Extent int `json:"extent,omitempty"`
	// FinalExtent is the extent of the final rearrangement pass
	// (0 = same as Extent).
	FinalExtent int `json:"final_extent,omitempty"`
	// Adaptive lets the search adapt the rearrangement extent to recent
	// success (paper §5's planned feature).
	Adaptive bool `json:"adaptive,omitempty"`
	// Precision names the CLV storage format, which is always "float64"
	// (also spelled "64", "double", "f64" or ""). The field stays so a job
	// asking for float32 is refused rather than silently run in float64,
	// and because every stored spec and result/pod key carries it.
	Precision string `json:"precision,omitempty"`
	// Engine names the likelihood backend: "cached" (the CLV-cached
	// production engine, the default) or "reference" (the direct
	// recomputation engine used for differential testing). See
	// likelihood.Engines for the registered set.
	Engine string `json:"engine,omitempty"`
	// SmoothMode names the full-tree branch-smoothing algorithm, which is
	// always "sweep" (also spelled ""), the sequential Newton sweep. No
	// flag sets it. The field stays so a job asking for "gradient" is
	// refused rather than silently smoothed by the sweep, and because
	// every stored spec and result/pod key carries it.
	SmoothMode string `json:"smooth_mode,omitempty"`
}

// Normalize validates the spec and fills every defaulted field with its
// canonical value, so equal inferences normalize — and serialize —
// identically however they were spelled. A setting that would be ignored
// (gtr_rates on another model) is an error, like one out of range.
func (s Spec) Normalize() (Spec, error) {
	switch strings.ToUpper(strings.TrimSpace(s.Model)) {
	case "", "F84":
		s.Model = "F84"
	case "JC", "JC69":
		s.Model = "JC69"
	case "K80":
		s.Model = "K80"
	case "HKY", "HKY85":
		s.Model = "HKY85"
	case "GTR":
		s.Model = "GTR"
	default:
		return s, fmt.Errorf("core: unknown model %q (F84, JC69, K80, HKY85, GTR)", s.Model)
	}
	if s.TTRatio < 0 {
		return s, fmt.Errorf("core: negative ttratio %g", s.TTRatio)
	}
	if s.TTRatio == 0 {
		s.TTRatio = model.DefaultTTRatio
	}
	if s.Kappa < 0 {
		return s, fmt.Errorf("core: negative kappa %g", s.Kappa)
	}
	if s.Kappa == 0 {
		s.Kappa = 2.0
	}
	switch {
	case s.Model != "GTR":
		if len(s.GTRRates) != 0 {
			return s, fmt.Errorf("core: gtr_rates given with model %s", s.Model)
		}
		// An empty list is no list: it must serialize, and key, the same.
		s.GTRRates = nil
	case len(s.GTRRates) == 0:
		s.GTRRates = []float64{1, 1, 1, 1, 1, 1}
	case len(s.GTRRates) != 6:
		return s, fmt.Errorf("core: gtr_rates needs 6 values, got %d", len(s.GTRRates))
	}
	if s.Jumbles < 0 {
		return s, fmt.Errorf("core: negative jumbles %d", s.Jumbles)
	}
	if s.Jumbles == 0 {
		s.Jumbles = 1
	}
	s.Seed = mlsearch.NormalizeSeed(s.Seed)
	if s.Extent < 0 || s.FinalExtent < 0 {
		return s, fmt.Errorf("core: negative rearrangement extent")
	}
	if s.Extent == 0 {
		s.Extent = 1
	}
	if s.FinalExtent == 0 {
		s.FinalExtent = s.Extent
	}
	prec, err := likelihood.ParsePrecision(s.Precision)
	if err != nil {
		return s, err
	}
	s.Precision = prec.String()
	if s.Engine, err = likelihood.ParseEngine(s.Engine); err != nil {
		return s, err
	}
	smode, err := likelihood.ParseSmoothMode(s.SmoothMode)
	if err != nil {
		return s, err
	}
	s.SmoothMode = smode.String()
	return s, nil
}

// BindFlags declares the fastdnaml CLI's model and search flags on fs,
// each writing its Spec field, so a command line and a job's JSON fill
// the same value.
func (s *Spec) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Model, "model", "F84", "substitution model: F84, JC69, K80, HKY85, GTR")
	fs.Float64Var(&s.TTRatio, "ttratio", 2.0, "F84 transition/transversion ratio")
	fs.Float64Var(&s.Kappa, "kappa", 2.0, "transition rate multiplier for K80/HKY85")
	fs.Func("gtr-rates", "six GTR exchangeabilities ac,ag,at,cg,ct,gt", func(v string) error {
		s.GTRRates = nil
		for _, f := range strings.FieldsFunc(v, func(r rune) bool { return r == ',' }) {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return err
			}
			s.GTRRates = append(s.GTRRates, x)
		}
		return nil
	})
	fs.IntVar(&s.Jumbles, "jumbles", 1, "number of random taxon orderings to analyze")
	fs.Int64Var(&s.Seed, "seed", 1, "random seed (even seeds are adjusted, as in fastDNAml)")
	fs.IntVar(&s.Extent, "extent", 1, "vertices crossed in local rearrangements (paper tests: 5)")
	fs.IntVar(&s.FinalExtent, "final-extent", 0, "vertices crossed in the final pass (0 = same as -extent)")
	fs.BoolVar(&s.Adaptive, "adaptive", false, "adapt the rearrangement extent to recent success (paper §5)")
	fs.StringVar(&s.Engine, "engine", "", "likelihood backend: cached (default) or reference (direct recomputation, for cross-validation)")
}
