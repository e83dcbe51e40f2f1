// Hypotheses: statistical comparison of competing trees — the workflow
// the paper highlights as fastDNAml's value: "it permits biologists to
// compare ML methods with other phylogenetic inference methods on the
// basis of the quality of the biological results obtained" (§3.2).
// A searched tree is tested against two a-priori hypotheses with the
// Kishino-Hasegawa test, and bootstrap proportions quantify how much of
// its structure the data actually supports.
//
//	go run ./examples/hypotheses
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mlsearch"
	"repro/internal/simulate"
	"repro/internal/tree"
)

func main() {
	// Simulated data with a known true tree.
	ds, err := simulate.New(simulate.Options{Taxa: 10, Sites: 800, Seed: 515, GammaAlpha: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	a := ds.Alignment

	// Hypothesis 0: the ML search's answer.
	inf, err := core.Infer(a, core.Options{Spec: core.Spec{Seed: 11, Extent: 2}, Run: mlsearch.RunOptions{Transport: mlsearch.Local, Workers: 2}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("searched tree: lnL %.2f\n", inf.Best.LnL)

	// Hypothesis 1: the true tree (should be statistically
	// indistinguishable from the searched tree, or better).
	// Hypothesis 2: a deliberately shuffled tree (should lose, usually
	// significantly).
	names := a.Names
	n := len(names)
	inner := "(" + names[n-2] + "," + names[n-1] + ")"
	for i := n - 3; i >= 2; i-- {
		inner = "(" + names[i] + "," + inner + ")"
	}
	caterpillar := "(" + names[0] + "," + names[1] + "," + inner + ");"
	wrong, err := tree.ParseNewick(caterpillar, names)
	if err != nil {
		log.Fatal(err)
	}

	cfg, _, err := core.Prepare(a, core.Options{Spec: core.Spec{Seed: 11}})
	if err != nil {
		log.Fatal(err)
	}
	ranked, err := mlsearch.KishinoHasegawa(cfg, []*tree.Tree{inf.Best.Tree, ds.TrueTree, wrong})
	if err != nil {
		log.Fatal(err)
	}
	labels := map[int]string{0: "searched", 1: "true generating tree", 2: "caterpillar"}
	fmt.Println("\nKishino-Hasegawa test, best first:")
	for _, r := range ranked {
		verdict := "indistinguishable from best"
		if r.Diff == 0 {
			verdict = "best"
		} else if r.SignificantlyWorse {
			verdict = "significantly worse (5% level)"
		}
		fmt.Printf("  %-22s lnL %10.2f  diff %9.2f  sd %7.2f  %s\n",
			labels[r.Index], r.LnL, r.Diff, r.SD, verdict)
	}

	// Bootstrap support for the searched tree's groupings.
	fmt.Println("\nbootstrapping (8 replicates)...")
	boot, err := core.Bootstrap(a, core.Options{Spec: core.Spec{Seed: 21, Extent: 1}, Run: mlsearch.RunOptions{Transport: mlsearch.Local, Workers: 2}}, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bootstrap consensus: %s\n", boot.Consensus.Tree.Newick())
	strong, weak := 0, 0
	for _, f := range boot.Consensus.SplitFreq {
		if f >= 0.95 {
			strong++
		} else if f <= 0.5 {
			weak++
		}
	}
	fmt.Printf("splits with >=95%% support: %d; with <=50%%: %d (of %d observed)\n",
		strong, weak, len(boot.Consensus.SplitFreq))

	// How close did the search get to the truth?
	rf, _, _ := tree.RobinsonFoulds(inf.Best.Tree, ds.TrueTree)
	bs, _ := tree.BranchScore(inf.Best.Tree, ds.TrueTree)
	fmt.Printf("\nsearched vs true: RF distance %d, branch score %.4f\n", rf, bs)
}
