package experiments

import (
	"fmt"

	"repro/internal/simulate"
	"repro/internal/spsim"
	"repro/internal/stats"
)

// Throughput partitioning: the paper discusses why one would parallelize
// within a single random ordering at all, given that whole orderings are
// embarrassingly parallel, and concludes that "there will be a point
// where overall throughput is best achieved by simultaneously analyzing
// multiple orderings of taxa, each on a subset of the total number of
// processors" (§3.2). This experiment finds that point: J orderings on P
// processors, split into g concurrent groups of P/g processors each.

// ThroughputPoint is one partitioning's simulated campaign time.
type ThroughputPoint struct {
	// Groups is the number of orderings run concurrently.
	Groups int
	// ProcsPerGroup is the processor share of each group.
	ProcsPerGroup int
	// CampaignSeconds is the simulated time to finish all orderings.
	CampaignSeconds float64
	// FirstResultSeconds is when the first ordering's tree arrives —
	// the paper's argument for parallelizing within an ordering: "the
	// practicing biologist benefits from seeing some results relatively
	// quickly" (§3.2).
	FirstResultSeconds float64
	// Best marks the partitioning with the shortest campaign.
	Best bool
}

// ThroughputOptions configure the study.
type ThroughputOptions struct {
	// Shape is the data set.
	Shape DatasetShape
	// Orderings is the campaign size (the paper's §6 example: 200).
	Orderings int
	// Processors is the total machine size.
	Processors int
	// Extent is the rearrangement setting.
	Extent int
	// Seed drives schedule synthesis.
	Seed int64
}

// Throughput simulates the campaign under every divisor partitioning of
// the machine and reports which wins. Groups must leave each partition at
// least 1 processor; the serial extreme (each ordering on 1 processor,
// i.e. as many groups as processors) is included.
func Throughput(opt ThroughputOptions) ([]ThroughputPoint, error) {
	// One representative schedule; every group runs statistically
	// identical work, so the campaign time is ceil(J/g) * T(P/g).
	log, err := spsim.Synthesize(spsim.Shape{
		Taxa:     opt.Shape.Taxa,
		Patterns: opt.Shape.Patterns,
		Extent:   opt.Extent,
		Seed:     opt.Seed,
	})
	if err != nil {
		return nil, err
	}

	var out []ThroughputPoint
	for g := 1; g <= opt.Processors; g++ {
		procs := opt.Processors / g
		if procs < 1 || g*procs != opt.Processors {
			continue // only exact partitions
		}
		cl := spsim.DefaultCluster(procs)
		if procs < 4 {
			// Partitions too small for the full control-process layout
			// run the serial program per ordering.
			cl.Processors = 1
		}
		res, err := cl.Simulate(log)
		if err != nil {
			return nil, err
		}
		waves := (opt.Orderings + g - 1) / g
		out = append(out, ThroughputPoint{
			Groups:             g,
			ProcsPerGroup:      cl.Processors,
			CampaignSeconds:    float64(waves) * res.TotalSeconds,
			FirstResultSeconds: res.TotalSeconds,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no valid partitionings of %d processors", opt.Processors)
	}
	best := 0
	for i := range out {
		if out[i].CampaignSeconds < out[best].CampaignSeconds {
			best = i
		}
	}
	out[best].Best = true
	return out, nil
}

// throughputStudy runs the study for the paper's §6 campaign, 200
// orderings of the 50-taxon set on 64 processors, under p's seed and
// extent.
func throughputStudy(p Params) (string, error) {
	shape, err := paperShape(p.Seed, simulate.Preset50)
	if err != nil {
		return "", err
	}
	opt := ThroughputOptions{Shape: shape, Orderings: 200, Processors: 64, Extent: p.Extent, Seed: p.Seed}
	pts, err := Throughput(opt)
	if err != nil {
		return "", err
	}
	return RenderThroughput(pts, opt.Orderings, opt.Processors), nil
}

// RenderThroughput renders the study as a table, the shortest campaign
// marked.
func RenderThroughput(points []ThroughputPoint, orderings, processors int) string {
	tbl := &stats.Table{Headers: []string{"concurrent orderings", "procs each", "campaign time", "first result", ""}}
	for _, p := range points {
		mark := ""
		if p.Best {
			mark = "best throughput"
		}
		tbl.Add(fmt.Sprintf("%d", p.Groups), fmt.Sprintf("%d", p.ProcsPerGroup),
			stats.FormatDuration(p.CampaignSeconds), stats.FormatDuration(p.FirstResultSeconds), mark)
	}
	return fmt.Sprintf("Throughput partitioning: %d orderings on %d processors (paper §3.2)\n\n%s",
		orderings, processors, tbl.String())
}
