package fault_test

// Chaos-recovery suite: end-to-end proof that the guard subsystem turns
// injected training failures (internal/fault) into automatic recoveries.
// These tests drive real trainers through guard.Supervisor.Run, the loop
// clapf-train runs, and are exercised under -race by scripts/check.sh.

import (
	"testing"

	"clapf/internal/core"
	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/fault"
	"clapf/internal/guard"
	"clapf/internal/mathx"
	"clapf/internal/sampling"
	"clapf/internal/store"
)

// chaosProfile is the unit-test-sized ML100K shape used by the
// statistical suites in internal/core.
var chaosProfile = datagen.Table1Profiles[0].Scaled(0.12)

// TestChaosPoisonRecoversEquivalent is the headline guarantee of this
// subsystem: NaN written into V mid-run trips the guard, training rolls
// back to the last good checkpoint with the learning rate halved, and the
// recovered run's final ranking metrics are statistically equivalent to a
// never-poisoned run (Welch two-sample t-test, rejecting only below
// α = 0.01).
func TestChaosPoisonRecoversEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repetition training study")
	}
	t.Parallel()
	const reps = 8

	type armResult struct{ prec, ndcg float64 }
	runArm := func(r int, poison bool) armResult {
		w, err := datagen.Generate(chaosProfile, mathx.NewRNG(uint64(1000+r)))
		if err != nil {
			t.Fatal(err)
		}
		train, test := dataset.Split(w.Data, mathx.NewRNG(uint64(2000+r)), 0.8)
		cfg := core.DefaultConfig(sampling.MAP, train.NumPairs())
		cfg.Dim = 8
		cfg.Steps = 10 * train.NumPairs()
		cfg.Seed = uint64(3000 + r)
		tr, err := core.NewTrainer(cfg, train)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetGuard(guard.Config{Watchdog: true, CheckEvery: 512}, nil); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		sup := &guard.Supervisor{Dir: dir, MaxRollbacks: 4}
		var after func(int)
		if poison {
			after = fault.PoisonAtStep(tr.Model(), 4*cfg.Steps/10, uint64(4000+r), 3)
		}
		rep, _, err := sup.Run(tr, guard.RunOptions{
			TotalSteps:      cfg.Steps,
			BatchSteps:      1024,
			CheckpointEvery: 2048,
			Checkpoint: func() (string, error) {
				return store.WriteCheckpoint(dir, tr.Model(), tr.MetaSnapshot(), 0)
			},
			AfterBatch: after,
		})
		if err != nil {
			t.Fatalf("rep %d poison=%v: %v\n%s", r, poison, err, rep.String())
		}
		if poison {
			if len(rep.Rollbacks) == 0 {
				t.Fatalf("rep %d: poisoned run never rolled back", r)
			}
			if lr := rep.Rollbacks[0].LearnRate; lr >= cfg.LearnRate {
				t.Fatalf("rep %d: learning rate %g not backed off from %g", r, lr, cfg.LearnRate)
			}
		} else if len(rep.Rollbacks) != 0 {
			t.Fatalf("rep %d: clean run rolled back:\n%s", r, rep.String())
		}
		if u, v, b := tr.Model().CountNonFinite(); u+v+b > 0 {
			t.Fatalf("rep %d poison=%v: %d non-finite params in final model", r, poison, u+v+b)
		}
		res := eval.Evaluate(tr.Model(), train, test, eval.Options{Ks: []int{5}})
		m := res.MustAt(5)
		return armResult{m.Prec, m.NDCG}
	}

	var clean, recovered [reps]armResult
	for r := 0; r < reps; r++ {
		clean[r] = runArm(r, false)
		recovered[r] = runArm(r, true)
	}
	pick := func(rs [reps]armResult, f func(armResult) float64) []float64 {
		out := make([]float64, reps)
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	for _, m := range []struct {
		name string
		f    func(armResult) float64
	}{
		{"Prec@5", func(r armResult) float64 { return r.prec }},
		{"NDCG@5", func(r armResult) float64 { return r.ndcg }},
	} {
		a, b := pick(clean, m.f), pick(recovered, m.f)
		res, err := mathx.WelchTTest(a, b)
		if err != nil {
			t.Fatalf("%s: t-test failed: %v", m.name, err)
		}
		t.Logf("%s: clean mean %.5f, recovered mean %.5f, t = %.3f, p = %.4f",
			m.name, mathx.Mean(a), mathx.Mean(b), res.T, res.P)
		if res.P <= 0.01 {
			t.Errorf("%s diverges between clean and poison-recovered runs: t = %.3f, p = %.5f",
				m.name, res.T, res.P)
		}
	}
}

// TestChaosTornCheckpointFallsBack injects the compound failure: poison
// lands in V, and the newest checkpoint generation is torn (truncated)
// before the rollback can use it. Recovery must skip the torn generation
// and restore the next older one.
func TestChaosTornCheckpointFallsBack(t *testing.T) {
	t.Parallel()
	w, err := datagen.Generate(chaosProfile, mathx.NewRNG(71))
	if err != nil {
		t.Fatal(err)
	}
	train, _ := dataset.Split(w.Data, mathx.NewRNG(72), 0.8)
	cfg := core.DefaultConfig(sampling.MAP, train.NumPairs())
	cfg.Dim = 8
	cfg.Steps = 6 * train.NumPairs()
	cfg.Seed = 73
	tr, err := core.NewTrainer(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetGuard(guard.Config{Watchdog: true, CheckEvery: 512}, nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sup := &guard.Supervisor{Dir: dir, MaxRollbacks: 3}
	injected := false
	var torn string
	rep, _, err := sup.Run(tr, guard.RunOptions{
		TotalSteps:      cfg.Steps,
		BatchSteps:      1024,
		CheckpointEvery: 1024,
		Checkpoint: func() (string, error) {
			return store.WriteCheckpoint(dir, tr.Model(), tr.MetaSnapshot(), 0)
		},
		AfterBatch: func(step int) {
			if injected || step < cfg.Steps/2 {
				return
			}
			injected = true
			fault.PoisonItemFactors(tr.Model(), 74, 4)
			torn, err = fault.TearNewestCheckpoint(dir)
			if err != nil {
				t.Errorf("tearing checkpoint: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatalf("Run = %v\n%s", err, rep.String())
	}
	if tr.StepsDone() != cfg.Steps {
		t.Errorf("finished at step %d, want %d", tr.StepsDone(), cfg.Steps)
	}
	if len(rep.Rollbacks) == 0 {
		t.Fatal("compound failure never rolled back")
	}
	ev := rep.Rollbacks[0]
	found := false
	for _, s := range ev.SkippedCheckpoints {
		if s == torn {
			found = true
		}
	}
	if !found {
		t.Errorf("rollback did not skip the torn generation %s (skipped %v)", torn, ev.SkippedCheckpoints)
	}
	if ev.CheckpointPath == torn {
		t.Errorf("rollback restored the torn generation %s", torn)
	}
	if u, v, b := tr.Model().CountNonFinite(); u+v+b > 0 {
		t.Errorf("final model carries %d non-finite params", u+v+b)
	}
}

// TestChaosExplodingLRParallelBacksOff feeds a Hogwild trainer a runaway
// learning-rate schedule. Each divergence trips a guard at a segment
// barrier; each rollback halves the rate; the run must geometrically back
// off until it converges again — all race-detector clean.
func TestChaosExplodingLRParallelBacksOff(t *testing.T) {
	t.Parallel()
	w, err := datagen.Generate(chaosProfile, mathx.NewRNG(81))
	if err != nil {
		t.Fatal(err)
	}
	train, _ := dataset.Split(w.Data, mathx.NewRNG(82), 0.8)
	cfg := core.DefaultConfig(sampling.MAP, train.NumPairs())
	cfg.Dim = 8
	cfg.Steps = 8 * train.NumPairs()
	cfg.Seed = 83
	pt, err := core.NewParallelTrainer(cfg, train, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.SetGuard(guard.Config{Watchdog: true, CheckEvery: 512}, nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sup := &guard.Supervisor{Dir: dir, MaxRollbacks: 16}
	explode := fault.ExplodingLR(pt, cfg.Steps/2, 100)
	rep, _, err := sup.Run(pt, guard.RunOptions{
		TotalSteps:      cfg.Steps,
		BatchSteps:      1024,
		CheckpointEvery: 2048,
		Checkpoint: func() (string, error) {
			return store.WriteCheckpoint(dir, pt.Model(), pt.MetaSnapshot(), 0)
		},
		AfterBatch: explode,
	})
	if err != nil {
		t.Fatalf("Run = %v\n%s", err, rep.String())
	}
	if pt.StepsDone() != cfg.Steps {
		t.Errorf("finished at step %d, want %d", pt.StepsDone(), cfg.Steps)
	}
	if len(rep.Rollbacks) == 0 {
		t.Fatal("exploded learning rate never tripped a guard")
	}
	t.Logf("recovered after %d rollback(s); final learning rate %g",
		len(rep.Rollbacks), rep.Rollbacks[len(rep.Rollbacks)-1].LearnRate)
	// Each rollback halves the post-explosion rate of 100×0.05 = 5; the
	// run cannot finish while updates still overflow.
	if lr := rep.Rollbacks[len(rep.Rollbacks)-1].LearnRate; lr >= 5 {
		t.Errorf("final learning rate %g never backed off below the exploded 5", lr)
	}
	if u, v, b := pt.Model().CountNonFinite(); u+v+b > 0 {
		t.Errorf("final model carries %d non-finite params", u+v+b)
	}
}
