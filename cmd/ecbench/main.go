// Command ecbench regenerates the paper's tables and figures on the
// deterministic EC-Store simulator.
//
// Usage:
//
//	ecbench -exp fig4b                # one experiment, full scale
//	ecbench -exp all -scale quick     # everything, fast
//	ecbench -list                     # list experiment ids
//	ecbench -exp ab-gateway -json out.json   # also write machine-readable results
//
// Experiment ids follow the paper: fig1, fig4a ... fig4h, tab2, tab3,
// plus the ablations ab-delta, ab-k, ab-w2, ab-mrate, ab-plan, ab-size,
// ab-cache, ab-scrub and ab-gateway. Every one runs on the simulator,
// which alone reaches the paper's 32-site scale in virtual time; the real
// data path is measured by the benchmark/ harness and the unit tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ecstore/internal/bench"
)

type runner func(bench.Scale) (*bench.Report, error)

// exp adapts an experiment's typed result away: ecbench only prints the
// rendered report (and marshals its Data for -json).
func exp[T any](f func(bench.Scale) (*bench.Report, T, error)) runner {
	return func(sc bench.Scale) (*bench.Report, error) {
		r, _, err := f(sc)
		return r, err
	}
}

func runners() map[string]runner {
	return map[string]runner{
		"fig1":       exp(bench.Fig1),
		"fig4a":      exp(bench.Fig4a),
		"fig4b":      exp(bench.Fig4b),
		"fig4c":      exp(bench.Fig4c),
		"fig4d":      exp(bench.Fig4d),
		"fig4e":      exp(bench.Fig4e),
		"fig4f":      exp(bench.Fig4f),
		"fig4g":      exp(bench.Fig4g),
		"fig4h":      exp(bench.Fig4h),
		"tab2":       exp(bench.Table2),
		"tab3":       exp(bench.Table3),
		"ab-delta":   exp(bench.AblationDelta),
		"ab-k":       exp(bench.AblationK),
		"ab-w2":      exp(bench.AblationW2),
		"ab-mrate":   exp(bench.AblationMoverRate),
		"ab-plan":    exp(bench.AblationPlanQuality),
		"ab-size":    exp(bench.AblationBlockSize),
		"ab-cache":   exp(bench.AblationCache),
		"ab-scrub":   exp(bench.AblationScrub),
		"ab-gateway": exp(bench.AblationGateway),
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ecbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ecbench", flag.ContinueOnError)
	expID := fs.String("exp", "all", "experiment id (or 'all')")
	scaleName := fs.String("scale", "full", "experiment scale: quick | mid | full")
	seed := fs.Int64("seed", 42, "simulation seed")
	list := fs.Bool("list", false, "list experiment ids and exit")
	jsonOut := fs.String("json", "", "also write machine-readable results to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	all := runners()
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return nil
	}

	var sc bench.Scale
	switch *scaleName {
	case "quick":
		sc = bench.QuickScale(*seed)
	case "mid":
		sc = bench.MidScale(*seed)
	case "full":
		sc = bench.FullScale(*seed)
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	selected := ids
	if *expID != "all" {
		if _, ok := all[*expID]; !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *expID)
		}
		selected = []string{*expID}
	}

	var reports []*bench.Report
	for _, id := range selected {
		start := time.Now()
		report, err := all[id](sc)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		reports = append(reports, report)
		fmt.Println(report)
		fmt.Printf("(%s scale, seed %d, %s)\n\n", sc.Name, sc.Seed, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, sc, reports); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return nil
}

// writeJSON emits the run's machine-readable results: one object per
// report, each carrying its raw sweep data, under the scale/seed that
// produced them. A single-report run (e.g. -exp ab-gateway) still
// writes the array form so consumers parse one shape.
func writeJSON(path string, sc bench.Scale, reports []*bench.Report) error {
	doc := struct {
		Scale   string          `json:"scale"`
		Seed    int64           `json:"seed"`
		Reports []*bench.Report `json:"reports"`
	}{Scale: sc.Name, Seed: sc.Seed, Reports: reports}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", path, err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
