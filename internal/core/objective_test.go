package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/guard"
	"clapf/internal/mathx"
	"clapf/internal/sampling"
	"clapf/internal/store"
)

// objectiveCase is one row of the table every test in this file runs
// over: the four objectives of the one trainer (BPR with each negative
// sampler that reads the live model, too).
type objectiveCase struct {
	name string
	obj  Objective // nil: CLAPF from Config's own fields
	// samplerWords is the size of the sampler's checkpointed stream
	// state: four words per stream it owns.
	samplerWords int
}

func objectiveCases() []objectiveCase {
	return []objectiveCase{
		{"CLAPF", nil, 4},
		{"BPR", BPR{}, 4},
		{"BPR-DNS", BPR{Negatives: sampling.DNSNegatives, Candidates: 4}, 4},
		{"BPR-ABS", BPR{Negatives: sampling.ABSNegatives, Candidates: 4}, 4},
		{"MPR", MPR{Rho: 0.6}, 8},
		{"Multi", DefaultMulti(), 8},
	}
}

func (c objectiveCase) config() Config {
	cfg := quickConfig(sampling.MAP)
	cfg.Objective = c.obj
	cfg.Steps = 6000
	cfg.Seed = 91
	return cfg
}

// TestObjectiveValidation: the one Config.Validate rejects NaN, ±Inf and
// out-of-range values of the shared hyper-parameters under every
// objective, and of each objective's own (λ, ρ, λ₁..₃, the candidate
// count); NewTrainer refuses what Validate refuses.
func TestObjectiveValidation(t *testing.T) {
	d := smallData(t, 41)
	nan, inf := math.NaN(), math.Inf(1)
	rejected := func(name string, cfg Config) {
		t.Helper()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: passed Validate", name)
		}
		if _, err := NewTrainer(cfg, d); err == nil {
			t.Errorf("%s: NewTrainer accepted it", name)
		}
	}
	shared := []struct {
		name string
		mut  func(*Config)
	}{
		{"LearnRate NaN", func(c *Config) { c.LearnRate = nan }},
		{"LearnRate +Inf", func(c *Config) { c.LearnRate = inf }},
		{"LearnRate 0", func(c *Config) { c.LearnRate = 0 }},
		{"RegUser NaN", func(c *Config) { c.RegUser = nan }},
		{"RegItem -Inf", func(c *Config) { c.RegItem = -inf }},
		{"RegBias -1", func(c *Config) { c.RegBias = -1 }},
		{"InitStd NaN", func(c *Config) { c.InitStd = nan }},
		{"ClipNorm +Inf", func(c *Config) { c.ClipNorm = inf }},
		{"ClipNorm -1", func(c *Config) { c.ClipNorm = -1 }},
		{"Dim 0", func(c *Config) { c.Dim = 0 }},
		{"Steps -1", func(c *Config) { c.Steps = -1 }},
	}
	for _, c := range objectiveCases() {
		if err := c.config().Validate(); err != nil {
			t.Errorf("%s: valid config rejected: %v", c.name, err)
		}
		for _, m := range shared {
			cfg := c.config()
			m.mut(&cfg)
			rejected(c.name+"/"+m.name, cfg)
		}
	}
	for _, lam := range []float64{nan, inf, -inf, -0.1, 1.1} {
		cfg := objectiveCase{}.config()
		cfg.Lambda = lam
		rejected("CLAPF/Lambda", cfg)
	}
	for name, o := range map[string]Objective{
		"BPR/DNS without candidates": BPR{Negatives: sampling.DNSNegatives},
		"BPR/ABS without candidates": BPR{Negatives: sampling.ABSNegatives, Candidates: -3},
		"BPR/unknown sampler":        BPR{Negatives: 99},
		"MPR/Rho NaN":                MPR{Rho: nan},
		"MPR/Rho +Inf":               MPR{Rho: inf},
		"MPR/Rho -Inf":               MPR{Rho: -inf},
		"MPR/Rho -0.1":               MPR{Rho: -0.1},
		"MPR/Rho 1.1":                MPR{Rho: 1.1},
		"Multi/Lambda1 NaN":          Multi{Lambda1: nan, Lambda2: 0.5, Lambda3: 0.3},
		"Multi/Lambda2 +Inf":         Multi{Lambda1: 0.2, Lambda2: inf, Lambda3: 0.3},
		"Multi/Lambda3 -Inf":         Multi{Lambda1: 0.2, Lambda2: 0.5, Lambda3: -inf},
		"Multi/Lambda1 -0.1":         Multi{Lambda1: -0.1, Lambda2: 0.5, Lambda3: 0.3},
		"Multi/all zero":             Multi{},
	} {
		cfg := objectiveCase{obj: o}.config()
		rejected(name, cfg)
	}
	// A set objective makes Config's CLAPF fields inert: they are not
	// its parameters and are not judged.
	cfg := objectiveCase{obj: BPR{}}.config()
	cfg.Lambda = 7
	if err := cfg.Validate(); err != nil {
		t.Errorf("BPR with an unused Lambda rejected: %v", err)
	}
}

// TestObjectiveResumeBitIdentical: a one-worker Uniform run resumed from
// a mid-run checkpoint trailer — through its JSON encoding, as on disk —
// ends on the same bits as the uninterrupted run, for every objective.
// MPR and CLAPF-Multi own two sampler streams and the trailer carries
// both; CLAPF's and BPR's keep the one-stream shape existing checkpoint
// directories hold.
func TestObjectiveResumeBitIdentical(t *testing.T) {
	d := trajectoryWorld(t)
	for _, c := range objectiveCases() {
		cfg := c.config()
		ref, err := NewTrainer(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		ref.RunSteps(2500)
		buf, err := json.Marshal(ref.MetaSnapshot())
		if err != nil {
			t.Fatal(err)
		}
		frozen := ref.Model().Clone()
		ref.Run()

		var meta store.Meta
		if err := json.Unmarshal(buf, &meta); err != nil {
			t.Fatal(err)
		}
		if len(meta.Workers) != 0 || len(meta.RNG) != 4 || len(meta.SamplerRNG) != c.samplerWords {
			t.Errorf("%s: trailer has %d workers, %d rng words, %d sampler words; want the one-worker shape with 4 and %d",
				c.name, len(meta.Workers), len(meta.RNG), len(meta.SamplerRNG), c.samplerWords)
		}
		resumed, err := NewTrainer(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.RestoreFromMeta(frozen, &meta); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resumed.Run()
		if resumed.StepsDone() != cfg.Steps {
			t.Errorf("%s: resumed run ended at step %d, want %d", c.name, resumed.StepsDone(), cfg.Steps)
		}
		if got, want := paramsHash(resumed.Model()), paramsHash(ref.Model()); got != want {
			t.Errorf("%s: resumed run ends at %s, uninterrupted at %s", c.name, got, want)
		}

		// A trailer with another stream count is a corrupt or foreign
		// checkpoint, named as such.
		meta.SamplerRNG = append(meta.SamplerRNG, 1, 2, 3, 4)
		if err := resumed.RestoreFromMeta(frozen, &meta); err == nil || !strings.Contains(err.Error(), "RNG words") {
			t.Errorf("%s: trailer with %d sampler words accepted: %v", c.name, len(meta.SamplerRNG), err)
		}

		// Several workers: the per-worker trailer carries every view's
		// streams and restores (the continuation is statistical).
		two, err := NewParallelTrainer(cfg, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		two.RunSteps(1000)
		pm := two.MetaSnapshot()
		if len(pm.Workers) != 2 || len(pm.Workers[1].SamplerRNG) != c.samplerWords {
			t.Errorf("%s: two-worker trailer %+v, want 2 workers with %d sampler words", c.name, pm.Workers, c.samplerWords)
		}
		if err := two.RestoreFromMeta(two.Model().Clone(), pm); err != nil {
			t.Errorf("%s: two-worker restore: %v", c.name, err)
		}
		two.Run()
		if two.StepsDone() != cfg.Steps {
			t.Errorf("%s: two-worker resumed run ended at step %d", c.name, two.StepsDone())
		}
	}
}

// TestObjectiveGradients: for steps drawn by each objective's own sampler
// — the k == i fold of a single-positive user included — the kernel moves
// every touched parameter along the finite-difference gradient of the
// objective-agnostic step loss, −ln σ(Σ_t c_t·f_ut) + regularization.
func TestObjectiveGradients(t *testing.T) {
	d := trajectoryWorld(t)
	for _, c := range objectiveCases() {
		cfg := c.config()
		cfg.Dim = 4
		cfg.LearnRate = 1 // step = exactly the negative gradient
		tr, err := NewTrainer(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		tr.RunSteps(200) // off the tiny init scale
		w := tr.workers[0]
		// The last record belongs to a single-positive user.
		for _, rec := range []dataset.Interaction{w.pairs[0], w.pairs[len(w.pairs)/2], w.pairs[len(w.pairs)-1]} {
			var items [maxStepItems]int32
			coef := w.sampler.Draw(rec.User, rec.Item, items[:])
			if items[0] != rec.Item || len(coef) < 2 || len(coef) > maxStepItems {
				t.Fatalf("%s: Draw(%d, %d) = items %v, coef %v", c.name, rec.User, rec.Item, items, coef)
			}
			checkStepGradient(t, c.name, tr, rec.User, items[:len(coef)], coef)
		}
	}
}

// TestObjectiveGuardTripsOnPoison: with the item matrix poisoned, a
// Watchdog guard stops every objective at the first non-finite risk and
// leaves the user rows and biases as they were — the bare BPR, MPR and
// CLAPF-Multi loops had no sentinel and spread the NaN to every row they
// sampled.
func TestObjectiveGuardTripsOnPoison(t *testing.T) {
	d := smallData(t, 43)
	for _, c := range objectiveCases() {
		tr, err := NewTrainer(c.config(), d)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetGuard(guard.Config{Watchdog: true, CheckEvery: 256}, nil); err != nil {
			t.Fatal(err)
		}
		tr.RunSteps(1000)
		if trip := tr.GuardTrip(); trip != nil {
			t.Fatalf("%s: healthy run tripped: %v", c.name, trip)
		}
		_, v, _ := tr.Model().RawParams()
		for i := range v {
			v[i] = math.NaN()
		}
		tr.RunSteps(1000)
		trip := tr.GuardTrip()
		if trip == nil || trip.Reason != guard.ReasonNonFiniteRisk {
			t.Fatalf("%s: poisoned run: trip = %v, want %s", c.name, trip, guard.ReasonNonFiniteRisk)
		}
		if tr.StepsDone() != 1001 {
			t.Errorf("%s: tripped at step %d, want the first poisoned step (1001)", c.name, tr.StepsDone())
		}
		if u, _, b := tr.Model().CountNonFinite(); u != 0 || b != 0 {
			t.Errorf("%s: poison spread to %d user and %d bias parameters", c.name, u, b)
		}
	}
}

// TestObjectiveTwoWorkers: every objective runs on two Hogwild workers —
// under the race detector in scripts/check.sh, which is half the
// assertion: DNS and ABS score their candidates against item rows other
// workers are writing, and must do so through mf's atomic accessors — and
// ends statistically where one worker does (Welch's t-test over seeded
// repetitions on final loss and NDCG@5, rejecting below α = 0.002 as
// TestParallelStatisticalEquivalence does for CLAPF).
func TestObjectiveTwoWorkers(t *testing.T) {
	t.Parallel()
	const reps = 10
	profile := datagen.Table1Profiles[0].Scaled(0.12) // ML100K shape, unit-test size
	// CLAPF has TestParallelStatisticalEquivalence.
	cases := append(objectiveCases()[1:], objectiveCase{name: "BPR-AoBPR", obj: BPR{Negatives: sampling.AoBPRNegatives}})
	for _, c := range cases {
		var loss, ndcg [2][]float64
		for r := 0; r < reps; r++ {
			w, err := datagen.Generate(profile, mathx.NewRNG(uint64(5000+r)))
			if err != nil {
				t.Fatal(err)
			}
			train, test := dataset.Split(w.Data, mathx.NewRNG(uint64(6000+r)), 0.8)
			for arm, workers := range []int{1, 2} {
				cfg := DefaultConfig(sampling.MAP, train.NumPairs())
				cfg.Objective = c.obj
				cfg.Dim = 8
				cfg.Steps = 6 * train.NumPairs()
				cfg.Seed = uint64(7000 + r)
				tr, err := NewParallelTrainer(cfg, train, workers)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.SetStatsHook(1024, func(TrainStats) {}); err != nil {
					t.Fatal(err)
				}
				tr.Run()
				if tr.Workers() != workers || tr.StepsDone() != cfg.Steps {
					t.Fatalf("%s: %d workers ran %d steps, want %d and %d", c.name, tr.Workers(), tr.StepsDone(), workers, cfg.Steps)
				}
				res := eval.Evaluate(tr.Model(), train, test, eval.Options{Ks: []int{5}})
				loss[arm] = append(loss[arm], tr.SmoothedLoss())
				ndcg[arm] = append(ndcg[arm], res.MustAt(5).NDCG)
			}
		}
		for name, m := range map[string][2][]float64{"final loss": loss, "NDCG@5": ndcg} {
			res, err := mathx.WelchTTest(m[0], m[1])
			if err != nil {
				t.Fatalf("%s %s: t-test failed: %v", c.name, name, err)
			}
			t.Logf("%s %s: one worker %.5f, two workers %.5f, p = %.4f", c.name, name, mathx.Mean(m[0]), mathx.Mean(m[1]), res.P)
			if res.P < 0.002 {
				t.Errorf("%s: %s diverges between one and two workers: t = %.3f, p = %.5f", c.name, name, res.T, res.P)
			}
		}
	}
}
