package experiments

import (
	"strings"

	"repro/internal/spsim"
)

// Params are the settings a study reads: cmd/scaling's flags. A study
// reads only the fields its Study.Reads names.
type Params struct {
	// Seed drives the data sets, the schedules and the real searches.
	Seed int64
	// Jumbles is the number of random orderings averaged per point.
	Jumbles int
	// Procs is the processor axis (nil: the study's own).
	Procs []int
	// Extent is the rearrangement setting.
	Extent int
	// Taxa and Sites size the measured study's data set.
	Taxa, Sites int
}

// Defaults are cmd/scaling's flag defaults: ten orderings per point and
// extent 5, as in the paper's tests (§3.1), and a real search for
// -exp measured that takes well under a second.
var Defaults = Params{Seed: 2001, Jumbles: 10, Extent: 5, Taxa: 14, Sites: 300}

// FalloffProcs is the fall-off study's processor axis, past the paper's 64.
var FalloffProcs = []int{1, 16, 64, 96, 128, 192, 256, 384, 512}

// Study is one experiment of cmd/scaling: its -exp name, the flags it
// reads besides -exp, its own processor axis where it reads -procs, and
// the markdown it prints.
type Study struct {
	Name  string
	Reads []string
	procs []int
	run   func(Params) (string, error)
}

// Run renders the study under p; a nil p.Procs is the study's own axis.
func (s Study) Run(p Params) (string, error) {
	if p.Procs == nil {
		p.Procs = s.procs
	}
	return s.run(p)
}

// The flag sets the studies read. A study reads a flag only where it
// means what it means for Figures 3 and 4.
var (
	scalingFlags  = []string{"seed", "jumbles", "procs", "extent"}
	axisFlags     = []string{"seed", "jumbles", "procs"}
	campaignFlags = []string{"seed", "extent"}
	seedFlag      = []string{"seed"}
)

// Studies are cmd/scaling's experiments in EXPERIMENTS.md's order, which
// is also the order of -exp all.
var Studies = []Study{
	{"treecount", nil, nil, func(Params) (string, error) {
		return rendered(RenderTreeCounts)(TreeCounts())
	}},
	{"flow", seedFlag, nil, func(p Params) (string, error) {
		var b strings.Builder
		err := FlowDemo(&b, p.Seed)
		return b.String(), err
	}},
	{"fig3", scalingFlags, PaperProcs, func(p Params) (string, error) {
		return rendered(RenderFig3)(paperScaling(p))
	}},
	{"fig4", scalingFlags, PaperProcs, func(p Params) (string, error) {
		return rendered(RenderFig4)(paperScaling(p))
	}},
	// §3.2: extent 1 scales worse than extent 5 "because there is a
	// smaller total amount of work done between synchronizations".
	{"extent", axisFlags, PaperProcs, func(p Params) (string, error) {
		return rendered(speedups("Rearrangement extent ablation (§3.2: extent 1 scales worse than extent 5)"))(fiftyTaxa(p,
			variant{"extent=1", ScalingOptions{Extent: 1}}, variant{"extent=5", ScalingOptions{Extent: 5}}))
	}},
	// §3.2: "the scalability will likely fall off at between 100 and 200
	// processors".
	{"falloff", scalingFlags, FalloffProcs, func(p Params) (string, error) {
		return rendered(efficiencies("Efficiency fall-off past the paper's 64 processors (§3.2 prediction: 100-200)"))(paperScaling(p))
	}},
	// A real search's schedule: extent 2, not -extent's 5, keeps the
	// search to a fraction of a second.
	{"measured", []string{"seed", "taxa", "sites", "procs"}, PaperProcs, func(p Params) (string, error) {
		p.Extent = 2
		return rendered(speedups("Measured-schedule sweep (real search, simulated cluster)"))(MeasuredSweep(p))
	}},
	{"slices", axisFlags, SliceProcs, func(p Params) (string, error) {
		return rendered(RenderSlices)(SliceComparison(p))
	}},
	// The study the paper planned (§3.2): does Ceron-style speculative
	// evaluation, overlapping a rearrangement round with the next when
	// no improvement is (correctly) predicted, help fastDNAml scale?
	{"speculative", scalingFlags, PaperProcs, func(p Params) (string, error) {
		spec := spsim.DefaultCluster(0)
		spec.Speculative = true
		return rendered(speedups("Speculative evaluation study (the paper's planned §3.2 follow-up)"))(fiftyTaxa(p,
			variant{"speculative=off", ScalingOptions{Extent: p.Extent}},
			variant{"speculative=on", ScalingOptions{Extent: p.Extent, Cluster: spec}}))
	}},
	{"throughput", campaignFlags, nil, throughputStudy},
	{"wallclock", campaignFlags, nil, func(p Params) (string, error) {
		return rendered(RenderWallclock)(Wallclock(p))
	}},
	{"calibrate", seedFlag, nil, func(p Params) (string, error) {
		return rendered(func(c *Calibration) string { return c.Report })(Calibrate(p.Seed))
	}},
}

// rendered lifts a renderer over a study's (result, error) pair.
func rendered[T any](render func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}
