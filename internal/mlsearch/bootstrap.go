package mlsearch

import (
	"bytes"
	"fmt"

	"repro/internal/likelihood"
	"repro/internal/model"
	"repro/internal/seq"
)

// Worker bootstrap for distributed (TCP) runs. MPI programs typically
// broadcast the sequence data to every rank at startup; here the master
// hands the router a welcome payload — the layout's role ranks plus a
// DataBundle carrying the alignment and model settings — and the
// transport delivers it inside the join handshake, so a worker is fully
// provisioned in one round trip. This is what lets the paper's
// geographically distributed PVM workers and the planned
// Condor/screensaver workers (§2.2, §5) run with nothing but a socket to
// the master.

// DataBundle is everything a worker needs to evaluate tasks.
type DataBundle struct {
	// PhylipText is the alignment in interleaved PHYLIP form.
	PhylipText []byte
	// TTRatio is the F84 transition/transversion ratio.
	TTRatio float64
	// SiteRates are optional per-site rates (empty = homogeneous).
	SiteRates []float64
	// Weights are optional per-site weights (empty = uniform).
	Weights []float64
	// Precision, Engine and SmoothMode are the run's evaluation identity
	// (see the Config fields of the same names; zero values = float64,
	// likelihood.DefaultEngine, the sequential sweep). The master stamps
	// them from its own Config and every joining worker evaluates with
	// them; fdworker has no flag for any of the three (WorkerHooks.Engine
	// is the seam that lets a test wrap the backend).
	Precision  likelihood.Precision
	Engine     string
	SmoothMode likelihood.SmoothMode
}

// Extension tags of the DataBundle envelope.
const (
	extBundleEngine byte = 1 + iota
	extBundleSmoothMode
)

const (
	bootData    byte = 0x44 // 'D'
	bootWelcome byte = 0x57 // 'W'
)

// MarshalDataBundle encodes a bundle.
func MarshalDataBundle(b DataBundle) []byte {
	var w wireWriter
	w.buf = append(w.buf, bootData)
	w.str(string(b.PhylipText))
	w.f64(b.TTRatio)
	w.i32(int32(len(b.SiteRates)))
	for _, r := range b.SiteRates {
		w.f64(r)
	}
	w.i32(int32(len(b.Weights)))
	for _, x := range b.Weights {
		w.f64(x)
	}
	w.i32(int32(b.Precision))
	if b.Engine != "" {
		w.ext(extBundleEngine, []byte(b.Engine))
	}
	if b.SmoothMode != likelihood.SmoothSweep {
		w.ext(extBundleSmoothMode, []byte(b.SmoothMode.String()))
	}
	return w.buf
}

// UnmarshalDataBundle decodes a bundle.
func UnmarshalDataBundle(data []byte) (DataBundle, error) {
	if len(data) == 0 || data[0] != bootData {
		return DataBundle{}, fmt.Errorf("mlsearch: not a data bundle")
	}
	r := wireReader{buf: data[1:]}
	b := DataBundle{
		PhylipText: []byte(r.str("bundle alignment")),
		TTRatio:    r.f64("bundle ratio"),
	}
	for n := r.count("bundle rate count", 8); n > 0; n-- {
		b.SiteRates = append(b.SiteRates, r.f64("bundle rate"))
	}
	for n := r.count("bundle weight count", 8); n > 0; n-- {
		b.Weights = append(b.Weights, r.f64("bundle weight"))
	}
	// The identity fields are refused, not defaulted, when this build
	// does not know the value: a worker that evaluated differently from
	// its run would return results that merely look right.
	prec := r.i32("bundle precision")
	if r.err == nil && prec != int32(likelihood.Float64) && prec != int32(likelihood.Float32) {
		return DataBundle{}, fmt.Errorf("mlsearch: data bundle asks for precision %d, which this build does not have", prec)
	}
	b.Precision = likelihood.Precision(prec)
	if err := r.extFields("bundle extension", func(tag byte, payload []byte) {
		switch tag {
		case extBundleEngine:
			b.Engine = string(payload)
		case extBundleSmoothMode:
			mode, err := likelihood.ParseSmoothMode(string(payload))
			if err != nil {
				r.err = fmt.Errorf("mlsearch: data bundle: %w", err)
			}
			b.SmoothMode = mode
		}
	}); err != nil {
		return DataBundle{}, err
	}
	return b, r.done("data bundle")
}

// Config materializes the bundle into the worker side of the run's
// Config: the data set, the F84 model over its empirical frequencies,
// and the precision, engine and smooth mode the master stamped.
func (b DataBundle) Config() (Config, error) {
	a, err := seq.ReadPhylip(bytes.NewReader(b.PhylipText))
	if err != nil {
		return Config{}, fmt.Errorf("mlsearch: bundle alignment: %w", err)
	}
	var rates, weights []float64
	if len(b.SiteRates) > 0 {
		rates = b.SiteRates
	}
	if len(b.Weights) > 0 {
		weights = b.Weights
	}
	pat, err := seq.Compress(a, seq.CompressOptions{Rates: rates, Weights: weights})
	if err != nil {
		return Config{}, err
	}
	ttr := b.TTRatio
	if ttr <= 0 {
		ttr = model.DefaultTTRatio
	}
	m, err := model.NewF84(seq.EmpiricalFreqsPatterns(pat), ttr)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Taxa: a.Names, Patterns: pat, Model: m,
		Precision: b.Precision, Engine: b.Engine, SmoothMode: b.SmoothMode,
	}, nil
}

// marshalWelcome encodes the payload the router hands each joining
// worker: the layout's role ranks plus the data bundle.
func marshalWelcome(lay Layout, bundle DataBundle) []byte {
	var w wireWriter
	w.buf = append(w.buf, bootWelcome)
	w.i32(int32(lay.Master))
	w.i32(int32(lay.Foreman))
	inner := MarshalDataBundle(bundle)
	w.i32(int32(len(inner)))
	w.buf = append(w.buf, inner...)
	return w.buf
}

// unmarshalWelcome decodes a welcome payload into the layout the worker
// should use and its data bundle.
func unmarshalWelcome(data []byte) (Layout, DataBundle, error) {
	if len(data) == 0 || data[0] != bootWelcome {
		return Layout{}, DataBundle{}, fmt.Errorf("mlsearch: not a welcome payload")
	}
	r := wireReader{buf: data[1:]}
	lay := Layout{
		Master:  int(r.i32("welcome master")),
		Foreman: int(r.i32("welcome foreman")),
		Elastic: true,
	}
	ln := r.i32("welcome bundle length")
	if r.err == nil && (ln < 0 || r.off+int(ln) > len(r.buf)) {
		r.fail("welcome bundle body")
	}
	if r.err != nil {
		return Layout{}, DataBundle{}, r.done("welcome")
	}
	bundle, err := UnmarshalDataBundle(r.buf[r.off : r.off+int(ln)])
	if err != nil {
		return Layout{}, DataBundle{}, err
	}
	r.off += int(ln)
	if err := r.done("welcome"); err != nil {
		return Layout{}, DataBundle{}, err
	}
	return lay, bundle, nil
}
