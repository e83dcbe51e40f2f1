package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mlsearch"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/spsim"
	"repro/internal/stats"
)

// Calibration ties the synthetic schedules to reality: real (small)
// searches are measured, and the cost model coefficients that the
// synthesizer uses for paper-scale runs are fitted from them.
type Calibration struct {
	// Cost is the fitted model.
	Cost spsim.CostModel
	// ImproveFraction is the observed share of rearrangement rounds
	// that found a better tree, per data set size.
	ImproveFraction map[int]float64
	// Report is a human-readable summary.
	Report string
}

// Calibrate runs real serial searches over small simulated data sets and
// fits the synthetic cost model (see spsim.DefaultCostModel for the
// committed values).
func Calibrate(seed int64) (*Calibration, error) {
	sizes := []int{12, 16, 20}
	const sites = 400

	var quickRatios, smoothRatios, logQuick []float64
	improves := map[int]float64{}

	for _, taxa := range sizes {
		ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: seed + int64(taxa)})
		if err != nil {
			return nil, err
		}
		pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
		if err != nil {
			return nil, err
		}
		m, err := mlsearch.NewDefaultModel(pat)
		if err != nil {
			return nil, err
		}
		cfg := mlsearch.Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: m, Seed: seed, RearrangeExtent: 2}
		out, err := mlsearch.Run(cfg, mlsearch.RunOptions{Transport: mlsearch.Serial})
		if err != nil {
			return nil, err
		}
		res := out.Results[0]

		rearr, improved := 0, 0
		npat := float64(pat.NumPatterns())
		for i, round := range res.Rounds {
			scale := float64(round.TaxaInTree) * npat
			switch round.Kind {
			case mlsearch.RoundAdd, mlsearch.RoundRearrange, mlsearch.RoundFinal:
				for _, t := range round.Tasks {
					ratio := float64(t.Ops) / scale
					quickRatios = append(quickRatios, ratio)
					logQuick = append(logQuick, math.Log(ratio))
				}
				if round.Kind != mlsearch.RoundAdd {
					rearr++
					if i+1 < len(res.Rounds) && res.Rounds[i+1].Kind == mlsearch.RoundSmooth {
						improved++
					}
				}
			case mlsearch.RoundSmooth, mlsearch.RoundInit:
				for _, t := range round.Tasks {
					smoothRatios = append(smoothRatios, float64(t.Ops)/scale)
				}
			}
		}
		if rearr > 0 {
			improves[taxa] = float64(improved) / float64(rearr)
		}
	}
	if len(quickRatios) == 0 || len(smoothRatios) == 0 {
		return nil, fmt.Errorf("experiments: calibration produced no samples")
	}

	cost := spsim.CostModel{
		QuickUnitsPerTaxonPattern:  stats.Mean(quickRatios),
		SmoothUnitsPerTaxonPattern: stats.Mean(smoothRatios),
		Sigma:                      stats.StdDev(logQuick),
		NewickBytesPerTaxon:        22,
	}

	def := spsim.DefaultCostModel()
	tbl := &stats.Table{Headers: []string{"coefficient", "fitted", "committed (spsim.DefaultCostModel)"}}
	tbl.Add("quick units / (taxa x patterns)", fmt.Sprintf("%.1f", cost.QuickUnitsPerTaxonPattern), fmt.Sprintf("%.0f", def.QuickUnitsPerTaxonPattern))
	tbl.Add("smooth units / (taxa x patterns)", fmt.Sprintf("%.1f", cost.SmoothUnitsPerTaxonPattern), fmt.Sprintf("%.0f", def.SmoothUnitsPerTaxonPattern))
	tbl.Add("lognormal sigma", fmt.Sprintf("%.3f", cost.Sigma), fmt.Sprintf("%.2f", def.Sigma))
	var improved []string
	for _, taxa := range sizes {
		improved = append(improved, fmt.Sprintf("%.0f", 100*improves[taxa]))
	}
	tbl.Add(fmt.Sprintf("rearrangement rounds that improved the tree, %% (%d / %d / %d taxa)", sizes[0], sizes[1], sizes[2]),
		strings.Join(improved, " / "), "100 / taxa, halving each round")
	report := "Cost model calibration from measured serial searches\n\n" + tbl.String()
	return &Calibration{Cost: cost, ImproveFraction: improves, Report: report}, nil
}

// MeasuredSweep runs a real serial search on a small data set, converts
// its measured round log into a simulator schedule, and sweeps the
// processor axis — the bridge that validates the synthetic schedules'
// shape against reality.
func MeasuredSweep(taxa, sites int, extent int, seed int64, procs []int) ([]ScalingPoint, error) {
	if len(procs) == 0 {
		procs = PaperProcs
	}
	ds, err := simulate.New(simulate.Options{Taxa: taxa, Sites: sites, Seed: seed})
	if err != nil {
		return nil, err
	}
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		return nil, err
	}
	m, err := mlsearch.NewDefaultModel(pat)
	if err != nil {
		return nil, err
	}
	cfg := mlsearch.Config{Taxa: ds.Alignment.Names, Patterns: pat, Model: m, Seed: seed, RearrangeExtent: extent}
	serialOut, err := mlsearch.Run(cfg, mlsearch.RunOptions{Transport: mlsearch.Serial})
	if err != nil {
		return nil, err
	}
	res := serialOut.Results[0]
	log := spsim.FromSearchResult(res, fmt.Sprintf("measured %d taxa", taxa))

	// A data set this small has sub-second tasks, so the paper-scale
	// message and startup overheads would swamp it; zero them to isolate
	// what the measured schedule itself allows — the round-structure
	// ceiling (few tasks per round, serial smoothing rounds) that also
	// causes the paper's predicted fall-off at high processor counts.
	cl := spsim.DefaultCluster(0)
	cl.Startup = 0
	cl.WorkerTaskOverhead = 0
	cl.DispatchLatency = 0
	cl.ReturnLatency = 0
	cl.MasterByteTime = 0
	pts, err := cl.Sweep(log, procs)
	if err != nil {
		return nil, err
	}
	var out []ScalingPoint
	for _, p := range pts {
		out = append(out, ScalingPoint{
			Dataset:     log.Label,
			Processors:  p.Processors,
			MeanSeconds: p.Seconds,
			Speedup:     p.Speedup,
			Efficiency:  p.Efficiency,
		})
	}
	return out, nil
}
