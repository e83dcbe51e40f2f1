// Rates: the DNArates pipeline (paper §2) — estimate per-site relative
// rates on an initial tree, feed them back into the likelihood model as
// site categories, and re-infer. Rate heterogeneity is ubiquitous in
// rRNA, and handling it is what the DNArates companion program was for.
//
//	go run ./examples/rates
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dnarates"
	"repro/internal/seq"
	"repro/internal/simulate"
)

func main() {
	// Data simulated with strong gamma rate heterogeneity across sites.
	ds, err := simulate.New(simulate.Options{
		Taxa: 14, Sites: 500, Seed: 2024, GammaAlpha: 0.4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pass 1: infer a tree assuming homogeneous rates.
	fmt.Println("pass 1: inference with homogeneous rates")
	first, err := core.Infer(ds.Alignment, core.Options{Spec: core.Spec{Seed: 7}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  lnL %.2f\n", first.Best.LnL)

	// Estimate per-site rates on that tree (DNArates).
	pat, err := seq.Compress(ds.Alignment, seq.CompressOptions{})
	if err != nil {
		log.Fatal(err)
	}
	_ = pat
	rates, err := dnarates.Estimate(first.Model, ds.Alignment, first.Best.Tree, dnarates.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndnarates: lnL %.2f (uniform) -> %.2f (fitted per-site rates)\n",
		rates.LnLBefore, rates.LnLAfter)

	// Bucket the rates into fastDNAml-style categories for inspection.
	cats, catRates, err := dnarates.Categorize(rates.PerSite, 6)
	if err != nil {
		log.Fatal(err)
	}
	hist := make([]int, 6)
	for _, c := range cats {
		hist[c-1]++
	}
	fmt.Println("rate categories (slow -> fast):")
	for c := 0; c < 6; c++ {
		fmt.Printf("  cat %d: rate %6.3f  %4d sites\n", c+1, catRates[c], hist[c])
	}

	// Pass 2: re-infer with the fitted rates in the model.
	fmt.Println("\npass 2: inference with the fitted per-site rates")
	second, err := core.Infer(ds.Alignment, core.Options{Spec: core.Spec{Seed: 7}, SiteRates: rates.PerSite})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  lnL %.2f (not comparable in absolute terms; the model changed)\n", second.Best.LnL)
	fmt.Printf("\ntopology change between passes: same=%v\n",
		first.Best.Tree.Topology() == second.Best.Tree.Topology())
}
