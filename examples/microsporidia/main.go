// Microsporidia-style analysis: the paper's motivating workload (§3) —
// multiple random orderings over an rRNA-like data set, a majority rule
// consensus across the orderings, taxon traces across the resulting
// trees, and the multi-tree SVG of the viewer (§4). The data set is a
// simulated stand-in for the European SSU rRNA alignments (DESIGN.md §2),
// scaled down so the example runs in seconds.
//
//	go run ./examples/microsporidia
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/simulate"
	"repro/internal/tree"
	"repro/internal/viewer"
)

func main() {
	// Simulated rRNA-like data: 20 taxa x 600 sites with gamma rate
	// heterogeneity (the real study used 50-150 taxa x 1269-1858 sites;
	// same pipeline, smaller scale).
	ds, err := simulate.New(simulate.Options{
		Taxa: 20, Sites: 600, Seed: 424, GammaAlpha: 0.6, TaxonPrefix: "micro",
	})
	if err != nil {
		log.Fatal(err)
	}

	// Five random orderings in parallel on the local runtime; a
	// biologist would run tens to thousands (paper §2).
	const jumbles = 5
	fmt.Printf("analyzing %d random orderings of %d taxa...\n", jumbles, ds.Alignment.NumSeqs())
	inf, err := core.Infer(ds.Alignment, core.Options{
		Spec:    core.Spec{Seed: 99, Jumbles: jumbles},
		Workers: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	for i, j := range inf.Jumbles {
		d, _, _ := tree.RobinsonFoulds(j.Tree, ds.TrueTree)
		fmt.Printf("  ordering %d: lnL %.2f  (RF distance to true tree: %d)\n", i+1, j.LnL, d)
	}
	fmt.Printf("best ordering: lnL %.2f\n\n", inf.Best.LnL)

	// Majority rule consensus across the orderings (paper §2, §4).
	fmt.Printf("majority rule consensus retains %d splits:\n%s\n\n",
		len(inf.Consensus.Support), inf.Consensus.Tree.Newick())

	// Trace two taxa across the five result trees (the viewer's tracing
	// facility, §4): where does each ordering place them?
	trees := make([]*tree.Tree, len(inf.Jumbles))
	labels := make([]string, len(inf.Jumbles))
	for i := range inf.Jumbles {
		trees[i] = inf.Jumbles[i].Tree
		labels[i] = fmt.Sprintf("ordering %d", i+1)
	}
	report, err := viewer.TraceReport(trees, []int{0, 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report)

	// Figure-5-style planar-3D scene with traces, written as SVG.
	scene, err := viewer.NewScene(trees, labels)
	if err != nil {
		log.Fatal(err)
	}
	svg := scene.SVG(viewer.SVGOptions{Width: 1100, TraceTaxa: []int{0, 7}, LeafLabels: true})
	const outPath = "microsporidia_trees.svg"
	if err := os.WriteFile(outPath, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s (5 trees on a comparison axis with taxon traces)\n", outPath)
}
