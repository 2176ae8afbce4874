// Command clapf-bench regenerates the paper's tables and figures on
// synthetic datasets with the Table 1 corpus shapes.
//
// Usage:
//
//	clapf-bench -exp table1 [-scale 0.1]
//	clapf-bench -exp table2 -dataset ML100K [-scale 0.25] [-reps 3] [-csv]
//	clapf-bench -exp fig2   -dataset ML100K [-scale 0.25] [-csv]
//	clapf-bench -exp fig3   -dataset ML100K [-scale 0.25] [-csv]
//	clapf-bench -exp fig4   -dataset ML100K [-scale 0.25] [-csv]
//
// Each experiment prints an aligned text table (or CSV with -csv where
// supported) matching the corresponding table/figure of the paper.
// Performance of the serving and training stack is measured elsewhere:
// benchmark/run.sh (see benchmark/README.md) and the Go benchmarks in
// the owning packages.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"clapf/internal/datagen"
	"clapf/internal/experiments"
	"clapf/internal/sampling"
)

func main() {
	var (
		exp     = flag.String("exp", "table2", "experiment: table1, table2, fig2, fig3, fig4")
		ds      = flag.String("dataset", "ML100K", "Table 1 dataset profile (table1 covers all of them)")
		scale   = flag.Float64("scale", 0.25, "dataset scale factor in (0, 1] (1 = full size)")
		reps    = flag.Int("reps", 3, "replicate splits to average")
		epochs  = flag.Int("epochs", 240, "epoch-equivalents of SGD per MF method (>= 1)")
		seed    = flag.Uint64("seed", 1, "experiment seed")
		maxEval = flag.Int("evalusers", 500, "max users evaluated per replicate (0 = all)")
		asCSV   = flag.Bool("csv", false, "emit CSV instead of a text table (not table1)")
	)
	flag.Parse()

	if err := run(os.Stdout, *exp, *ds, *scale, *reps, *epochs, *seed, *maxEval, *asCSV); err != nil {
		fmt.Fprintln(os.Stderr, "clapf-bench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, exp, ds string, scale float64, reps, epochs int, seed uint64, maxEval int, asCSV bool) error {
	// Each of these would otherwise print a plausible but wrong table:
	// zero epochs leaves every model untrained, and Profile.Scaled reads
	// any scale outside (0, 1) as full size.
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %v out of range (want 0 < scale <= 1)", scale)
	}
	if epochs < 1 {
		return fmt.Errorf("-epochs %d out of range (want >= 1)", epochs)
	}
	if maxEval < 0 {
		return fmt.Errorf("-evalusers %d out of range (want >= 0, 0 = all)", maxEval)
	}

	if exp == "table1" {
		if asCSV {
			return fmt.Errorf("-csv is not supported by -exp table1")
		}
		stats, err := experiments.Table1Stats(datagen.Table1Profiles, scale, seed)
		if err != nil {
			return err
		}
		return experiments.RenderTable1(out, stats)
	}

	setup, err := experiments.DefaultSetup(ds, scale)
	if err != nil {
		return err
	}
	setup.Replicates = reps
	setup.Seed = seed
	setup.EvalMaxUsers = maxEval
	setup.Budget.EpochEquivalents = epochs

	switch exp {
	case "table2", "fig2":
		methods := experiments.Table2Methods(setup.Profile.Name, setup.Budget)
		rows, curves, err := experiments.RunComparison(setup, methods)
		if err != nil {
			return err
		}
		if exp == "table2" {
			if asCSV {
				fmt.Fprint(out, experiments.CSVTable2(rows))
				return nil
			}
			if err := experiments.RenderTable2(out, setup.Profile.Name, rows); err != nil {
				return err
			}
			if reps >= 2 {
				sig, err := experiments.SignificanceVsBaseline(rows, "BPR")
				if err != nil {
					return err
				}
				fmt.Fprintln(out, "\npaired t-test on NDCG@5 vs BPR (same splits):")
				for _, r := range rows {
					if res, ok := sig[r.Method]; ok {
						fmt.Fprintf(out, "  %-20s t=%+.2f p=%.3f\n", r.Method, res.T, res.P)
					}
				}
			}
			return nil
		}
		if asCSV {
			fmt.Fprint(out, experiments.CSVTopKCurves(curves))
			return nil
		}
		return experiments.RenderTopKCurves(out, setup.Profile.Name, curves)

	case "fig3":
		for _, variant := range []sampling.Objective{sampling.MAP, sampling.MRR} {
			points, err := experiments.RunLambdaSweep(setup, variant)
			if err != nil {
				return err
			}
			if asCSV {
				fmt.Fprintf(out, "# CLAPF-%s\n%s", variant, experiments.CSVLambdaSweep(points))
				continue
			}
			if err := experiments.RenderLambdaSweep(out, setup.Profile.Name, variant.String(), points); err != nil {
				return err
			}
		}
		return nil

	case "fig4":
		traces, err := experiments.RunConvergence(setup, sampling.MAP, 10)
		if err != nil {
			return err
		}
		if asCSV {
			fmt.Fprint(out, experiments.CSVConvergence(traces))
			return nil
		}
		return experiments.RenderConvergence(out, setup.Profile.Name, traces)

	default:
		return fmt.Errorf("unknown experiment %q (want table1, table2, fig2, fig3, fig4)", exp)
	}
}
