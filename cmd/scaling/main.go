// Command scaling regenerates the paper's evaluation: the tree-count
// examples (§1.1), the Figure 3 and Figure 4 scaling study, the §3.2
// predictions (4-processor slowdown, extent sensitivity, fall-off past
// 100-200 processors), the §6 wall-clock arithmetic, and the calibration
// runs that tie the simulated cluster to measured searches. Each -exp is
// one of experiments.Studies; a flag the chosen study does not read is
// refused. See EXPERIMENTS.md for the recorded paper-vs-measured
// comparison.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/experiments"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "scaling:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line the program refuses: exit status 2.
type usageError struct{ error }

// errFlags is a command line the flag set refused; it has printed why,
// with the usage.
var errFlags = errors.New("bad flags")

// run parses args and writes the chosen studies' markdown to w.
func run(args []string, w io.Writer) error {
	var names []string
	for _, s := range experiments.Studies {
		names = append(names, s.Name)
	}
	p := experiments.Defaults
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	exp := fs.String("exp", "fig3", "experiment: "+strings.Join(names, ", ")+", all")
	fs.IntVar(&p.Jumbles, "jumbles", p.Jumbles, "random orderings averaged per point (paper: 10)")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "seed for data sets, schedules and searches")
	fs.Func("procs", "comma-separated processor counts (default: the experiment's own axis; fig3/fig4: the paper's 1,4,8,16,32,64)", func(v string) error {
		p.Procs = nil
		for _, f := range strings.Split(v, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			p.Procs = append(p.Procs, n)
		}
		return nil
	})
	fs.IntVar(&p.Taxa, "taxa", p.Taxa, "taxa for -exp measured")
	fs.IntVar(&p.Sites, "sites", p.Sites, "sites for -exp measured")
	fs.IntVar(&p.Extent, "extent", p.Extent, "rearrangement extent (paper tests: 5)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errFlags
	}
	if *version {
		fmt.Fprintln(w, "scaling", buildinfo.String())
		return nil
	}

	studies := experiments.Studies
	if *exp != "all" {
		i := slices.Index(names, *exp)
		if i < 0 {
			return usageError{fmt.Errorf("unknown experiment %q (%s, all)", *exp, strings.Join(names, ", "))}
		}
		studies = studies[i : i+1]
	}
	var refused error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "exp" || refused != nil {
			return
		}
		for _, s := range studies {
			if slices.Contains(s.Reads, f.Name) {
				return
			}
		}
		refused = usageError{fmt.Errorf("-exp %s does not read -%s", *exp, f.Name)}
	})
	if refused != nil {
		return refused
	}

	for _, s := range studies {
		if len(studies) > 1 {
			fmt.Fprintf(w, "==== %s ====\n", s.Name)
		}
		out, err := s.Run(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	return nil
}
