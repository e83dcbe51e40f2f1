// Quickstart: infer a maximum likelihood tree from a small DNA alignment
// with the library's highest-level API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/viewer"
)

// A toy alignment: three primate-like clades over 40 sites.
const phylip = `7 40
human     ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT
chimp     ACGTACGTACGTACGAACGTACGTACGTACGTACGTACGT
gorilla   ACGTACGTACTTACGAACGTACGTACGTACGGACGTACGT
orang     ACGAACGTACTTACGAACGTACGTACGAACGGACGTACCT
gibbon    ACGAACGTACTTACGAACGTTCGTACGAACGGACGTACCT
macaque   TCGAACGTACTTACGAAGGTTCGTACGAACGGAGGTACCT
baboon    TCGAACGTACTTACGAAGGTTCGTACGAACTGAGGTACCT
`

func main() {
	// 1. Read the alignment (PHYLIP, as fastDNAml does).
	a, err := seq.ReadPhylip(strings.NewReader(phylip))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Infer: F84 model with empirical base frequencies, stepwise
	// addition with local rearrangements — fastDNAml's algorithm.
	inf, err := core.Infer(a, core.Options{Spec: core.Spec{Seed: 13, Extent: 2}})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Report.
	fmt.Printf("log likelihood: %.4f\n", inf.Best.LnL)
	fmt.Printf("tree: %s\n\n", inf.Best.Newick)
	text, err := viewer.ASCII(inf.Best.Tree, viewer.ASCIIOptions{Width: 70, ShowLengths: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(text)

	// The unrooted tree (paper Fig 1 is exactly such a tree) groups the
	// apes away from the old world monkeys.
	fmt.Println("\nsearch effort:")
	fmt.Printf("  %d candidate trees evaluated over %d rounds\n",
		inf.Best.Search.TotalTasks, len(inf.Best.Search.Rounds))
}
