// Command experiments regenerates the paper's evaluation (§7): every table
// and figure, printed as text series. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig4,fig9d -scale 8 -openml 500
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

// figure is one name -run selects and what it runs on the suite.
type figure struct {
	name string
	run  func() error
}

// figures is every figure of s that -run names, in the order -run all runs
// them. fig9c renders fig9ab's result, so it runs fig9ab first unless
// fig9ab already ran.
func figures(s *experiments.Suite) []figure {
	var ab []experiments.Fig9Result
	fig9ab := func() (err error) {
		if ab == nil {
			ab, err = s.Fig9ab()
		}
		return err
	}
	return []figure{
		{"table1", func() error { _, err := s.Table1(); return err }},
		{"fig4", func() error { _, err := s.Fig4(); return err }},
		{"fig5", func() error { _, err := s.Fig5(); return err }},
		{"fig6", func() error { _, err := s.Fig6(); return err }},
		{"fig7a", func() error { _, err := s.Fig7a(); return err }},
		{"fig7b", func() error { _, err := s.Fig7b(); return err }},
		{"fig8a", func() error { _, err := s.Fig8a(); return err }},
		{"fig8b", func() error { _, err := s.Fig8b(); return err }},
		{"fig9ab", fig9ab},
		{"fig9c", func() error {
			if err := fig9ab(); err != nil {
				return err
			}
			s.Fig9c(ab)
			return nil
		}},
		{"fig9d", func() error { _, err := s.Fig9d(); return err }},
		{"fig9disk", func() error { _, err := s.Fig9Disk(); return err }},
		{"fig10", func() error { _, err := s.Fig10(); return err }},
		{"scalability", func() error { _, err := s.FigScalability(); return err }},
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is experiments given the arguments args, printing the figures to
// stdout, and returns the exit status: 0 when every selected figure ran (or
// for -h), 1 when one failed, and 2 for a flag it refuses or a -run name it
// does not know, before any figure runs.
func run(args []string, stdout, stderr io.Writer) int {
	s := experiments.DefaultSuite(stdout)
	figs := figures(s)
	known := []string{"all"}
	for _, f := range figs {
		known = append(known, f.name)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.String("run", "all", "comma-separated: "+strings.Join(known[1:], ",")+" or 'all'")
	fs.IntVar(&s.Kaggle.Scale, "scale", 4, "kaggle data scale factor")
	fs.Int64Var(&s.Kaggle.Seed, "seed", 42, "data seed")
	fs.IntVar(&s.OpenMLRuns, "openml", 2000, "OpenML pipeline count (paper: 2000)")
	fs.IntVar(&s.SynthWorkloads, "synth", 10000, "synthetic workloads for fig9d (paper: 10000)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*list, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(known, name) {
			fmt.Fprintf(stderr, "experiments: -run %s: unknown figure (known: %s)\n", name, strings.Join(known, ", "))
			return 2
		}
		want[name] = true
	}

	start := time.Now()
	for _, f := range figs {
		if want["all"] || want[f.name] {
			if err := f.run(); err != nil {
				fmt.Fprintf(stderr, "experiments: %s: %v\n", f.name, err)
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "done in %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}
