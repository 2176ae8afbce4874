package core

import (
	"math"
	"testing"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/guard"
	"clapf/internal/mathx"
	"clapf/internal/obs"
	"clapf/internal/sampling"
)

func TestParallelTrainerValidation(t *testing.T) {
	t.Parallel()
	d := smallData(t, 1)
	cfg := quickConfig(sampling.MAP)
	if _, err := NewParallelTrainer(cfg, d, 0); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := NewParallelTrainer(cfg, nil, 2); err == nil {
		t.Error("nil data accepted")
	}
	bad := cfg
	bad.Lambda = 2
	if _, err := NewParallelTrainer(bad, d, 2); err == nil {
		t.Error("invalid config accepted")
	}
	// More workers than trainable records: the trainer clamps rather than
	// spinning up idle goroutines.
	tiny, err := dataset.FromInteractions("t", 2, 5, []dataset.Interaction{
		{User: 0, Item: 1}, {User: 1, Item: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewParallelTrainer(cfg, tiny, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Workers() != 2 {
		t.Errorf("workers = %d, want clamp to 2 records", pt.Workers())
	}
}

// TestParallelSingleWorkerDeterministic pins down that a one-worker
// parallel trainer — the only configuration without write interleaving —
// is bit-reproducible run to run.
func TestParallelSingleWorkerDeterministic(t *testing.T) {
	t.Parallel()
	d := smallData(t, 3)
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 4000

	run := func() (u, v, b []float64) {
		pt, err := NewParallelTrainer(cfg, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		pt.Run()
		return pt.Model().RawParams()
	}
	u1, v1, b1 := run()
	u2, v2, b2 := run()
	for name, pair := range map[string][2][]float64{
		"U": {u1, u2}, "V": {v1, v2}, "B": {b1, b2},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d] differs between identical runs: %v vs %v",
					name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestParallelTrainingImprovesRanking mirrors the serial smoke test:
// a 4-worker Hogwild run must rank clearly better than chance.
func TestParallelTrainingImprovesRanking(t *testing.T) {
	t.Parallel()
	w, err := datagen.Generate(datagen.Profile{
		Name: "par", Users: 80, Items: 150, Pairs: 3000,
		ZipfExp: 0.6, Dim: 5, Affinity: 7,
	}, mathx.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	train, test := dataset.Split(w.Data, mathx.NewRNG(5), 0.5)
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 120000
	cfg.Seed = 6
	pt, err := NewParallelTrainer(cfg, train, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := eval.Evaluate(pt.Model(), train, test, eval.Options{Ks: []int{5}})
	pt.Run()
	if pt.StepsDone() != cfg.Steps {
		t.Fatalf("StepsDone = %d, want %d", pt.StepsDone(), cfg.Steps)
	}
	res := eval.Evaluate(pt.Model(), train, test, eval.Options{Ks: []int{5}})
	// The bar is a hair below the serial test's 0.7: a single seed under
	// schedule-dependent interleaving wobbles ±0.02 around it, and the
	// no-systematic-loss claim belongs to the t-test suite, not here.
	if res.AUC < 0.65 {
		t.Errorf("AUC after parallel training = %.3f, want > 0.65", res.AUC)
	}
	if res.AUC <= before.AUC {
		t.Errorf("AUC did not improve: %.3f -> %.3f", before.AUC, res.AUC)
	}
	// Lifetime worker accounting must cover every step.
	sum := 0
	for _, ws := range pt.WorkerStats() {
		sum += ws.Steps
	}
	if sum != cfg.Steps {
		t.Errorf("worker steps sum to %d, want %d", sum, cfg.Steps)
	}
}

// TestParallelStatisticalEquivalence is the headline guarantee: across
// independently seeded repetitions of a scaled ML100K-profile run, a
// 4-worker Hogwild trainer and the serial reference trainer must be
// statistically indistinguishable on final smoothed loss, Prec@5, and
// NDCG@5 (Welch two-sample t-test; we reject only below α = 0.002 so the
// deterministic-seed design keeps flake risk negligible while still
// catching any systematic divergence, which manifests as p ≈ 0).
func TestParallelStatisticalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repetition training study")
	}
	t.Parallel()
	const reps = 10
	profile := datagen.Table1Profiles[0].Scaled(0.12) // ML100K shape, unit-test size

	type armResult struct{ loss, prec, ndcg float64 }
	runArm := func(r int, workers int) armResult {
		w, err := datagen.Generate(profile, mathx.NewRNG(uint64(1000+r)))
		if err != nil {
			t.Fatal(err)
		}
		train, test := dataset.Split(w.Data, mathx.NewRNG(uint64(2000+r)), 0.8)
		cfg := DefaultConfig(sampling.MAP, train.NumPairs())
		cfg.Dim = 8
		cfg.Steps = 6 * train.NumPairs()
		cfg.Seed = uint64(3000 + r)

		var loss float64
		if workers == 0 { // serial reference
			tr, err := NewTrainer(cfg, train)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.SetStatsHook(1024, func(TrainStats) {}); err != nil {
				t.Fatal(err)
			}
			tr.Run()
			loss = tr.SmoothedLoss()
			res := eval.Evaluate(tr.Model(), train, test, eval.Options{Ks: []int{5}})
			m := res.MustAt(5)
			return armResult{loss, m.Prec, m.NDCG}
		}
		pt, err := NewParallelTrainer(cfg, train, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.SetStatsHook(1024, func(TrainStats) {}); err != nil {
			t.Fatal(err)
		}
		pt.Run()
		loss = pt.SmoothedLoss()
		res := eval.Evaluate(pt.Model(), train, test, eval.Options{Ks: []int{5}})
		m := res.MustAt(5)
		return armResult{loss, m.Prec, m.NDCG}
	}

	var serial, hogwild [reps]armResult
	for r := 0; r < reps; r++ {
		serial[r] = runArm(r, 0)
		hogwild[r] = runArm(r, 4)
	}
	pick := func(rs [reps]armResult, f func(armResult) float64) []float64 {
		out := make([]float64, reps)
		for i, r := range rs {
			out[i] = f(r)
		}
		return out
	}
	metrics := []struct {
		name string
		f    func(armResult) float64
	}{
		{"final loss", func(r armResult) float64 { return r.loss }},
		{"Prec@5", func(r armResult) float64 { return r.prec }},
		{"NDCG@5", func(r armResult) float64 { return r.ndcg }},
	}
	for _, m := range metrics {
		a, b := pick(serial, m.f), pick(hogwild, m.f)
		res, err := mathx.WelchTTest(a, b)
		if err != nil {
			t.Fatalf("%s: t-test failed: %v", m.name, err)
		}
		t.Logf("%s: serial mean %.5f, hogwild mean %.5f, t = %.3f, p = %.4f",
			m.name, mathx.Mean(a), mathx.Mean(b), res.T, res.P)
		if res.P < 0.002 {
			t.Errorf("%s diverges between serial and 4-worker training: t = %.3f, p = %.5f",
				m.name, res.T, res.P)
		}
	}
}

// TestParallelConcurrentRace exercises the full Hogwild surface — DSS
// sampling with barrier refreshes, stats hooks, sampler instrumentation,
// and the obs export — under the race detector (make check runs
// go test -race), which is the assertion.
func TestParallelConcurrentRace(t *testing.T) {
	t.Parallel()
	d := smallData(t, 5)
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 6000
	cfg.Sampler.Strategy = sampling.DSS
	cfg.Sampler.RefreshEvery = 1500
	pt, err := NewParallelTrainer(cfg, d, 4)
	if err != nil {
		t.Fatal(err)
	}
	hooks := 0
	if err := pt.SetStatsHook(1000, func(s TrainStats) {
		hooks++
		if s.Step == 0 || s.Step > cfg.Steps {
			t.Errorf("hook step %d out of range", s.Step)
		}
	}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pt.RegisterMetrics(reg)
	pos := obs.NewHistogram(obs.RankBuckets(d.NumItems()))
	neg := obs.NewHistogram(obs.RankBuckets(d.NumItems()))
	pt.InstrumentSampler(pos, neg)

	pt.Run()

	if hooks == 0 {
		t.Error("stats hook never fired")
	}
	if pt.SmoothedLoss() <= 0 {
		t.Errorf("smoothed loss = %v, want > 0", pt.SmoothedLoss())
	}
	if g := pt.GradMagnitude(); g < 0 || g > 1 {
		t.Errorf("grad magnitude = %v, want within [0, 1]", g)
	}
	if neg.Count() == 0 {
		t.Error("negative draw histogram empty despite DSS instrumentation")
	}
	// Parameters must come out finite despite lock-free interleaving.
	u, v, b := pt.Model().RawParams()
	for _, s := range [][]float64{u, v, b} {
		for i, x := range s {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("non-finite parameter at %d: %v", i, x)
			}
		}
	}
}

// TestParallelSnapshotRestoreBitIdentical proves the crash-safety
// contract in the one configuration where it can be exact: one worker,
// Uniform sampler.
func TestParallelSnapshotRestoreBitIdentical(t *testing.T) {
	t.Parallel()
	cfg, data := snapshotFixture(t, sampling.Uniform)

	ref, err := NewParallelTrainer(cfg, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunSteps(cfg.Steps / 2)
	st := ref.Snapshot()
	frozen := ref.Model().Clone()
	ref.RunSteps(cfg.Steps - ref.StepsDone())

	resumed, err := NewParallelTrainer(cfg, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(st, frozen); err != nil {
		t.Fatal(err)
	}
	if resumed.StepsDone() != cfg.Steps/2 {
		t.Fatalf("StepsDone after restore = %d, want %d", resumed.StepsDone(), cfg.Steps/2)
	}
	resumed.RunSteps(cfg.Steps - resumed.StepsDone())

	ru, rv, rb := ref.Model().RawParams()
	su, sv, sb := resumed.Model().RawParams()
	for name, pair := range map[string][2][]float64{
		"U": {ru, su}, "V": {rv, sv}, "B": {rb, sb},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d]: resumed %v != uninterrupted %v",
					name, i, pair[1][i], pair[0][i])
			}
		}
	}
}

// TestParallelSnapshotRestoreHogwildConverges checks the weaker multi-
// worker guarantee: a restored 4-worker DSS run completes and lands in a
// sane loss neighborhood (exact trajectories are schedule-dependent).
func TestParallelSnapshotRestoreHogwildConverges(t *testing.T) {
	t.Parallel()
	cfg, data := snapshotFixture(t, sampling.DSS)

	ref, err := NewParallelTrainer(cfg, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetStatsHook(500, func(TrainStats) {}); err != nil {
		t.Fatal(err)
	}
	ref.RunSteps(cfg.Steps / 2)
	st := ref.Snapshot()
	frozen := ref.Model().Clone()
	ref.RunSteps(cfg.Steps - ref.StepsDone())

	resumed, err := NewParallelTrainer(cfg, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.SetStatsHook(500, func(TrainStats) {}); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(st, frozen); err != nil {
		t.Fatal(err)
	}
	resumed.RunSteps(cfg.Steps - resumed.StepsDone())

	a, b := ref.SmoothedLoss(), resumed.SmoothedLoss()
	if a <= 0 || b <= 0 {
		t.Fatalf("losses not tracked: ref %v, resumed %v", a, b)
	}
	if rel := math.Abs(a-b) / a; rel > 0.25 {
		t.Errorf("resumed loss %v strays %.0f%% from uninterrupted %v", b, rel*100, a)
	}
}

func TestParallelRestoreErrors(t *testing.T) {
	t.Parallel()
	cfg, data := snapshotFixture(t, sampling.Uniform)
	pt2, err := NewParallelTrainer(cfg, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt2.RunSteps(100)
	st := pt2.Snapshot()
	frozen := pt2.Model().Clone()

	pt3, err := NewParallelTrainer(cfg, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt3.Restore(st, frozen); err == nil {
		t.Error("worker-count mismatch accepted")
	}
	bad := st
	bad.Step = -1
	if err := pt2.Restore(bad, frozen); err == nil {
		t.Error("negative step accepted")
	}
}

func TestProportionalShares(t *testing.T) {
	t.Parallel()
	mk := func(sizes ...int) []*worker {
		ws := make([]*worker, len(sizes))
		for i, n := range sizes {
			ws[i] = &worker{pairs: make([]dataset.Interaction, n)}
		}
		return ws
	}
	cases := []struct {
		seg   int
		sizes []int
		want  []int
	}{
		{100, []int{50, 50}, []int{50, 50}},
		{10, []int{75, 25}, []int{8, 2}},
		{1, []int{10, 10, 10}, []int{1, 0, 0}},
		{7, []int{1, 1, 1}, []int{3, 2, 2}},
		{5, []int{0, 100}, []int{0, 5}},
	}
	for _, c := range cases {
		got := proportionalShares(c.seg, mk(c.sizes...))
		total := 0
		for i := range got {
			total += got[i]
			if got[i] != c.want[i] {
				t.Errorf("shares(%d, %v) = %v, want %v", c.seg, c.sizes, got, c.want)
				break
			}
		}
		if total != c.seg {
			t.Errorf("shares(%d, %v) sum to %d", c.seg, c.sizes, total)
		}
	}
}

// BenchmarkParallelTrain measures Hogwild throughput at several worker
// counts on an ML100K-shaped corpus; the ledger's core.par_speedup row
// (benchmark/README.md) tracks the 1-vs-N ratio at ML1M size.
func BenchmarkParallelTrain(b *testing.B) {
	profile := datagen.Table1Profiles[0].Scaled(0.25)
	w, err := datagen.Generate(profile, mathx.NewRNG(42))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			cfg := DefaultConfig(sampling.MAP, w.Data.NumPairs())
			cfg.Dim = 16
			cfg.Steps = 1 << 62 // never self-terminate; the loop drives it
			pt, err := NewParallelTrainer(cfg, w.Data, workers)
			if err != nil {
				b.Fatal(err)
			}
			pt.RunSteps(1000) // warm-up outside the timer
			b.ResetTimer()
			pt.RunSteps(b.N)
			b.StopTimer()
			b.ReportMetric(float64(pt.StepsDone()-1000)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// BenchmarkParallelTrainGuarded is BenchmarkParallelTrain with the full
// guardrail stack armed: loss watchdog, non-finite sentinels, and gradient
// clipping with live counter flushes. Comparing steps/s against the
// unguarded benchmark prices the guard's hot-path overhead (the acceptance
// bar is < 3%).
func BenchmarkParallelTrainGuarded(b *testing.B) {
	profile := datagen.Table1Profiles[0].Scaled(0.25)
	w, err := datagen.Generate(profile, mathx.NewRNG(42))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			cfg := DefaultConfig(sampling.MAP, w.Data.NumPairs())
			cfg.Dim = 16
			cfg.Steps = 1 << 62 // never self-terminate; the loop drives it
			cfg.ClipNorm = 10   // loose enough to rarely fire, so only the norm check is priced
			pt, err := NewParallelTrainer(cfg, w.Data, workers)
			if err != nil {
				b.Fatal(err)
			}
			gm := guard.NewMetrics(obs.NewRegistry())
			if err := pt.SetGuard(guard.Config{Watchdog: true}, gm); err != nil {
				b.Fatal(err)
			}
			pt.RunSteps(1000) // warm-up outside the timer
			b.ResetTimer()
			pt.RunSteps(b.N)
			b.StopTimer()
			if trip := pt.GuardTrip(); trip != nil {
				b.Fatalf("guard tripped during benchmark: %v", trip)
			}
			b.ReportMetric(float64(pt.StepsDone()-1000)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
