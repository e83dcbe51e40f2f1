// Command consense computes the majority rule consensus of a set of
// trees, the paper's route from many random orderings to one answer (§2:
// "compare the best of the resulting trees to determine a consensus
// tree").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/fileio"
	"repro/internal/tree"
	"repro/internal/viewer"
)

func main() {
	var (
		treesPath = flag.String("trees", "", "Newick tree file, one tree per line (required)")
		threshold = flag.Float64("threshold", 0.5, "split inclusion threshold (0.5 = strict majority)")
		outPath   = flag.String("out", "", "write the consensus tree here (default stdout)")
		ascii     = flag.Bool("ascii", true, "print a text rendering")
	)
	versionFlag := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *versionFlag {
		fmt.Println("consense", buildinfo.String())
		return
	}
	if *treesPath == "" {
		fmt.Fprintln(os.Stderr, "consense: -trees is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*treesPath, *threshold, *outPath, *ascii, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "consense:", err)
		os.Exit(1)
	}
}

// run writes the consensus tree to outPath (stdout when empty) and its
// report — counts, each retained split's support and smaller side, the
// text rendering — to report.
func run(treesPath string, threshold float64, outPath string, ascii bool, report io.Writer) error {
	taxa, err := fileio.TaxaFromTreesFile(treesPath)
	if err != nil {
		return err
	}
	sort.Strings(taxa)
	trees, err := fileio.ReadTreesFile(treesPath, taxa)
	if err != nil {
		return err
	}
	res, err := tree.MajorityRule(trees, threshold)
	if err != nil {
		return err
	}
	nwk := res.Tree.Newick()
	if outPath != "" {
		if err := fileio.WriteLines(outPath, []string{nwk}); err != nil {
			return err
		}
	} else {
		fmt.Println(nwk)
	}
	fmt.Fprintf(report, "consense: %d trees, %d splits retained of %d observed\n",
		len(trees), len(res.Support), len(res.SplitFreq))
	for _, sp := range res.Listing() {
		fmt.Fprintf(report, "  split support %.0f%%: %s\n", 100*sp.Support, strings.Join(sp.Taxa, " "))
	}
	if ascii {
		text, err := viewer.ASCII(res.Tree, viewer.ASCIIOptions{Width: 78})
		if err == nil {
			fmt.Fprintln(report)
			fmt.Fprint(report, text)
		}
	}
	return nil
}
