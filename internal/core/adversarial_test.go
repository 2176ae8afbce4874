package core

import (
	"fmt"
	"testing"

	"clapf/internal/dataset"
	"clapf/internal/guard"
	"clapf/internal/sampling"
)

// Adversarial-dataset property suite: degenerate interaction patterns —
// single-positive users, users with no negatives left (catalog fully
// observed), duplicated interactions — must train to a finite model under
// both Uniform and DSS sampling, serial and Hogwild, with an armed guard
// never tripping. These shapes show up constantly in production corpora
// (new users, power users, replayed logs) and are exactly where sampling
// geometry degenerates.

// adversarialSets builds the degenerate corpora. Each must be accepted by
// the trainer constructors (at least one user keeps a sampleable negative).
func adversarialSets(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	sets := map[string]*dataset.Dataset{}

	// Every user has exactly one observed item: the CLAPF triple
	// degenerates to a scaled BPR pair (k must alias i).
	var single []dataset.Interaction
	for u := 0; u < 12; u++ {
		single = append(single, dataset.Interaction{User: int32(u), Item: int32(u % 7)})
	}
	d, err := dataset.FromInteractions("single-positive", 12, 7, single)
	if err != nil {
		t.Fatal(err)
	}
	sets["single-positive"] = d

	// Half the users observed the entire catalog — their negative lists
	// are empty and every one of their records must be excluded from
	// sampling, not divided by zero.
	var full []dataset.Interaction
	for u := 0; u < 6; u++ {
		if u%2 == 0 {
			for i := 0; i < 8; i++ {
				full = append(full, dataset.Interaction{User: int32(u), Item: int32(i)})
			}
		} else {
			full = append(full, dataset.Interaction{User: int32(u), Item: int32(u % 8)},
				dataset.Interaction{User: int32(u), Item: int32((u + 3) % 8)})
		}
	}
	d, err = dataset.FromInteractions("empty-negatives", 6, 8, full)
	if err != nil {
		t.Fatal(err)
	}
	sets["empty-negatives"] = d

	// The same log replayed many times: dedup must leave a trainable set
	// and the duplicates must not skew anything into overflow.
	var dup []dataset.Interaction
	for rep := 0; rep < 25; rep++ {
		for u := 0; u < 5; u++ {
			dup = append(dup, dataset.Interaction{User: int32(u), Item: int32((u * 2) % 9)},
				dataset.Interaction{User: int32(u), Item: int32((u*2 + 1) % 9)})
		}
	}
	d, err = dataset.FromInteractions("duplicates", 5, 9, dup)
	if err != nil {
		t.Fatal(err)
	}
	sets["duplicates"] = d

	return sets
}

// The subtests keep the "workers=1" level of their names so their ids
// stay stable; there is one worker.
func TestAdversarialDatasetsTrainFinite(t *testing.T) {
	for name, d := range adversarialSets(t) {
		for _, strat := range []sampling.Strategy{sampling.Uniform, sampling.DSS} {
			t.Run(fmt.Sprintf("%s/%v/workers=1", name, strat), func(t *testing.T) {
				cfg := DefaultConfig(sampling.MAP, d.NumPairs())
				cfg.Dim = 6
				cfg.Steps = 4000
				cfg.Seed = 21
				cfg.Sampler.Strategy = strat

				tr, err := NewTrainer(cfg, d)
				if err != nil {
					t.Fatalf("%s rejected: %v", name, err)
				}
				if err := tr.SetGuard(guard.Config{Watchdog: true, CheckEvery: 256}, nil); err != nil {
					t.Fatal(err)
				}
				tr.RunSteps(cfg.Steps)
				if trip := tr.GuardTrip(); trip != nil {
					t.Fatalf("guard tripped on %s: %v", name, trip)
				}
				if tr.StepsDone() != cfg.Steps {
					t.Errorf("ran %d steps, want %d", tr.StepsDone(), cfg.Steps)
				}
				if u, v, b := tr.Model().CountNonFinite(); u+v+b > 0 {
					t.Errorf("%s produced %d non-finite params (%d/%d/%d)", name, u+v+b, u, v, b)
				}
			})
		}
	}
}
