package mlsearch

import (
	"fmt"
	"math"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/seq"
)

// Worker bootstrap for distributed (TCP) runs. MPI programs typically
// broadcast the sequence data to every rank at startup; here the master
// hands the router a welcome payload — the layout's role ranks plus the
// run's Config, encoded — and the transport delivers it inside the join
// handshake, so a worker is fully provisioned in one round trip. This is
// what lets the paper's geographically distributed PVM workers and the
// planned Condor/screensaver workers (§2.2, §5) run with nothing but a
// socket to the master.
//
// The welcome carries numbers, not a recipe: the compressed patterns with
// their weights and rates, and the model as its name, frequencies and
// spectral decomposition — the two things every engine reads. A worker
// therefore evaluates over exactly what its master evaluates over,
// whatever the model, the weights or the rates were built from.

// DataBundle is unread: a TCP run's workers are provisioned from the
// run's Config. The type and RunOptions.Bundle remain settable only
// because the benchmark module sets them (ROADMAP item 6 drops both).
type DataBundle struct {
	PhylipText []byte
	TTRatio    float64
}

const bootWelcome byte = 0x57 // 'W'

// marshalWelcome encodes the payload the router hands each joining
// worker: the layout's role ranks plus everything of the normalized
// Config an evaluator is built from. Threads is a host setting and stays
// behind; the search settings are the master's alone.
func marshalWelcome(lay Layout, norm Config) []byte {
	pat := norm.Patterns
	var w wireWriter
	w.buf = append(w.buf, bootWelcome)
	w.i32(int32(lay.Master))
	w.i32(int32(lay.Foreman))
	w.i32(int32(len(norm.Taxa)))
	for _, name := range norm.Taxa {
		w.str(name)
	}
	w.i32(int32(pat.NumPatterns()))
	for _, row := range pat.Codes {
		w.i32(int32(len(row)))
		for _, c := range row {
			w.buf = append(w.buf, byte(c))
		}
	}
	for _, x := range pat.Weights {
		w.f64(x)
	}
	for _, x := range pat.Rates {
		w.f64(x)
	}
	w.str(norm.Model.Name())
	for _, f := range norm.Model.Freqs() {
		w.f64(f)
	}
	d := norm.Model.Decomposition()
	w.i32(int32(len(d.Lambda)))
	for _, l := range d.Lambda {
		w.f64(l)
	}
	for k := range d.Coef {
		for _, row := range d.Coef[k] {
			for _, c := range row {
				w.f64(c)
			}
		}
	}
	w.i32(int32(norm.Precision))
	w.str(norm.Engine)
	w.str(norm.SmoothMode.String())
	return w.buf
}

// unmarshalWelcome decodes a welcome payload into the layout the worker
// should use and the Config it evaluates with. The payload is outside
// input: whatever this build could not evaluate exactly as the master
// does is refused, never defaulted — a worker that evaluated differently
// from its run would return results that merely look right.
func unmarshalWelcome(data []byte) (Layout, Config, error) {
	refuse := func(err error) (Layout, Config, error) { return Layout{}, Config{}, err }
	if len(data) == 0 || data[0] != bootWelcome {
		return refuse(fmt.Errorf("mlsearch: not a welcome payload"))
	}
	r := wireReader{buf: data[1:]}
	lay := Layout{
		Master:  int(r.i32("welcome master")),
		Foreman: int(r.i32("welcome foreman")),
		Elastic: true,
	}
	var cfg Config
	ntaxa := r.count("welcome taxon count", 4)
	if r.err == nil && ntaxa < 3 {
		return refuse(fmt.Errorf("mlsearch: welcome names %d taxa, need at least 3", ntaxa))
	}
	cfg.Taxa = make([]string, ntaxa)
	for i := range cfg.Taxa {
		cfg.Taxa[i] = r.str("welcome taxon name")
	}
	// Every pattern has a weight and a rate, so 16 bytes bound the count.
	npat := r.count("welcome pattern count", 16)
	if r.err == nil && npat < 1 {
		return refuse(fmt.Errorf("mlsearch: welcome holds no patterns"))
	}
	pat := &seq.Patterns{Codes: make([][]seq.Code, ntaxa)}
	for i := range pat.Codes {
		row := r.bytes("welcome code row")
		if r.err == nil && len(row) != npat {
			return refuse(fmt.Errorf("mlsearch: welcome code row %d holds %d codes for %d patterns", i, len(row), npat))
		}
		pat.Codes[i] = make([]seq.Code, len(row))
		for p, c := range row {
			// A code is the 4-bit mask of the bases a site may hold.
			if c < 1 || c > byte(seq.Any) {
				return refuse(fmt.Errorf("mlsearch: welcome code %#x (taxon %d, pattern %d) is not a base mask", c, i, p))
			}
			pat.Codes[i][p] = seq.Code(c)
		}
	}
	positive := func(what string) []float64 {
		out := make([]float64, npat)
		for p := range out {
			out[p] = r.f64(what)
			if r.err == nil && !(out[p] > 0 && !math.IsInf(out[p], 0)) {
				r.err = fmt.Errorf("mlsearch: welcome %s %g of pattern %d is not finite and positive", what, out[p], p)
			}
		}
		return out
	}
	pat.Weights = positive("weight")
	pat.Rates = positive("rate")
	cfg.Patterns = pat

	name := r.str("welcome model name")
	var freqs seq.BaseFreqs
	for i := range freqs {
		freqs[i] = r.f64("welcome frequency")
	}
	k := r.count("welcome eigenvalue count", 8+16*8)
	d := model.Decomposition{Lambda: make([]float64, k), Coef: make([]model.PMatrix, k)}
	for i := range d.Lambda {
		d.Lambda[i] = r.f64("welcome eigenvalue")
	}
	for i := range d.Coef {
		for a := range d.Coef[i] {
			for b := range d.Coef[i][a] {
				d.Coef[i][a][b] = r.f64("welcome coefficient")
			}
		}
	}
	prec := r.i32("welcome precision")
	cfg.Engine = r.str("welcome engine")
	mode := r.str("welcome smooth mode")
	err := r.done("welcome")
	if err != nil {
		return refuse(err)
	}
	if cfg.Model, err = model.FromDecomposition(name, freqs, d); err != nil {
		return refuse(fmt.Errorf("mlsearch: welcome: %w", err))
	}
	if prec != int32(likelihood.Float64) && prec != int32(likelihood.Float32) {
		return refuse(fmt.Errorf("mlsearch: welcome asks for precision %d, which this build does not have", prec))
	}
	cfg.Precision = likelihood.Precision(prec)
	if cfg.SmoothMode, err = likelihood.ParseSmoothMode(mode); err != nil {
		return refuse(fmt.Errorf("mlsearch: welcome: %w", err))
	}
	return lay, cfg, nil
}
