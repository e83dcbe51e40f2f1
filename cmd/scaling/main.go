// Command scaling regenerates the paper's evaluation: the tree-count
// examples (§1.1), the Figure 3 and Figure 4 scaling study, the §3.2
// predictions (4-processor slowdown, extent sensitivity, fall-off past
// 100-200 processors), the §6 wall-clock arithmetic, and the calibration
// runs that tie the simulated cluster to measured searches. See
// EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "fig3", "experiment: treecount, fig3, fig4, falloff, extent, speculative, slices, throughput, wallclock, calibrate, measured, flow, all")
		jumbles = flag.Int("jumbles", 10, "random orderings averaged per point (paper: 10)")
		seed    = flag.Int64("seed", 2001, "seed for data sets and schedules")
		procs   = flag.String("procs", "", "comma-separated processor counts (default: the paper's 1,4,8,16,32,64)")
		taxa    = flag.Int("taxa", 14, "taxa for -exp measured")
		sites   = flag.Int("sites", 300, "sites for -exp measured")
		extent  = flag.Int("extent", 5, "rearrangement extent (paper tests: 5)")
	)
	versionFlag := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println("scaling", buildinfo.String())
		return
	}

	var procList []int
	if *procs != "" {
		for _, f := range strings.Split(*procs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintln(os.Stderr, "scaling: bad -procs:", err)
				os.Exit(2)
			}
			procList = append(procList, v)
		}
	}

	var run func(string) error
	run = func(name string) error {
		switch name {
		case "treecount":
			rows, err := experiments.TreeCounts()
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderTreeCounts(rows))
		case "fig3", "fig4":
			fmt.Fprintf(os.Stderr, "scaling: generating paper data sets and %d schedules per set...\n", *jumbles)
			pts, err := experiments.Scaling(experiments.ScalingOptions{
				Jumbles: *jumbles, Procs: procList, Extent: *extent, Seed: *seed,
			})
			if err != nil {
				return err
			}
			if name == "fig3" {
				fmt.Println(experiments.RenderFig3(pts))
			} else {
				fmt.Println(experiments.RenderFig4(pts))
			}
		case "falloff":
			pts, err := experiments.Falloff(*seed, *jumbles)
			if err != nil {
				return err
			}
			fmt.Println("Efficiency fall-off past the paper's 64 processors (§3.2 prediction: 100-200)")
			fmt.Println(experiments.RenderFig4(pts))
		case "extent":
			pts, err := experiments.ExtentComparison(*seed, *jumbles)
			if err != nil {
				return err
			}
			fmt.Println("Rearrangement extent ablation (§3.2: extent 1 scales worse than extent 5)")
			fmt.Println(experiments.RenderFig4(pts))
		case "speculative":
			pts, err := experiments.SpeculativeComparison(*seed, *jumbles)
			if err != nil {
				return err
			}
			fmt.Println("Speculative evaluation study (the paper's planned §3.2 follow-up)")
			fmt.Println(experiments.RenderFig4(pts))
		case "slices":
			pts, err := experiments.SliceComparison(*seed, *jumbles)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderSlices(pts))
		case "throughput":
			pts, err := experiments.Throughput(experiments.ThroughputOptions{Seed: *seed, Extent: *extent})
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderThroughput(pts, 200, 64))
		case "wallclock":
			_, text, err := experiments.Wallclock(*seed)
			if err != nil {
				return err
			}
			fmt.Println(text)
		case "calibrate":
			cal, err := experiments.Calibrate(*seed)
			if err != nil {
				return err
			}
			fmt.Println(cal.Report)
		case "measured":
			fmt.Fprintf(os.Stderr, "scaling: running a real %d-taxon search...\n", *taxa)
			pts, err := experiments.MeasuredSweep(*taxa, *sites, 2, *seed, procList)
			if err != nil {
				return err
			}
			fmt.Println("Measured-schedule sweep (real search, simulated cluster)")
			fmt.Println(experiments.RenderFig4(pts))
		case "flow":
			return experiments.FlowDemo(os.Stdout, *seed)
		case "all":
			for _, n := range []string{"treecount", "flow", "measured", "fig3", "fig4", "extent", "speculative", "throughput", "falloff", "slices", "wallclock"} {
				fmt.Printf("==== %s ====\n", n)
				if err := run(n); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "scaling:", err)
		os.Exit(1)
	}
}
