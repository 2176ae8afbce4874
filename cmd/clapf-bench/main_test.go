package main

import (
	"io"
	"math"
	"testing"
)

// The bench CLI's run function is exercised at miniature scale so every
// experiment path stays wired; the real reproduction runs use the flags
// documented in the package comment.
func TestRunAllExperimentsTiny(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "fig2", "fig3", "fig4"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			// scale 0.05, 1 rep, 2 epoch-equivalents: seconds, not minutes.
			if err := run(io.Discard, exp, "ML100K", 0.05, 1, 2, 1, 30, false); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		})
	}
}

func TestRunCSVModes(t *testing.T) {
	for _, exp := range []string{"table2", "fig2", "fig3", "fig4"} {
		if err := run(io.Discard, exp, "ML100K", 0.05, 1, 2, 1, 30, true); err != nil {
			t.Fatalf("%s csv: %v", exp, err)
		}
	}
}

// Every input here used to produce a table — the wrong one — or to fail
// on a value the experiment never reads.
func TestRunUnknowns(t *testing.T) {
	rejected := []struct {
		name, exp, ds string
		scale         float64
		epochs        int
		maxEval       int
		asCSV         bool
	}{
		{"unknown experiment", "nope", "ML100K", 0.1, 1, 10, false},
		{"deleted experiment", "serve", "ML100K", 0.1, 1, 10, false},
		{"unknown dataset", "table2", "bogus", 0.1, 1, 10, false},
		{"zero epochs", "table2", "ML100K", 0.05, 0, 10, false},
		{"negative epochs", "fig4", "ML100K", 0.05, -3, 10, false},
		{"zero scale", "table1", "ML100K", 0, 1, 10, false},
		{"negative scale", "table2", "ML100K", -0.25, 1, 10, false},
		{"scale above full size", "table1", "ML100K", 1.5, 1, 10, false},
		{"NaN scale", "table2", "ML100K", math.NaN(), 1, 10, false},
		{"negative evalusers", "table2", "ML100K", 0.05, 1, -5, false},
		{"csv with table1", "table1", "ML100K", 0.05, 1, 10, true},
	}
	for _, c := range rejected {
		if err := run(io.Discard, c.exp, c.ds, c.scale, 1, c.epochs, 1, c.maxEval, c.asCSV); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// table1 covers every profile and never reads -dataset.
	if err := run(io.Discard, "table1", "bogus", 0.05, 1, 1, 1, 10, false); err != nil {
		t.Errorf("table1 with an unused bogus -dataset: %v", err)
	}
}
