package core

import (
	"fmt"
	"math"
	"testing"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/mathx"
	"clapf/internal/sampling"
)

func smallData(t *testing.T, seed uint64) *dataset.Dataset {
	t.Helper()
	w, err := datagen.Generate(datagen.Profile{
		Name: "unit", Users: 60, Items: 120, Pairs: 1500,
		ZipfExp: 0.7, Dim: 5, Affinity: 6,
	}, mathx.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w.Data
}

func quickConfig(variant sampling.Objective) Config {
	cfg := DefaultConfig(variant, 1500)
	cfg.Dim = 8
	cfg.Steps = 20000
	return cfg
}

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig(sampling.MAP, 100)
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"lambda low", func(c *Config) { c.Lambda = -0.1 }},
		{"lambda high", func(c *Config) { c.Lambda = 1.1 }},
		{"zero rate", func(c *Config) { c.LearnRate = 0 }},
		{"neg reg", func(c *Config) { c.RegItem = -1 }},
		{"zero dim", func(c *Config) { c.Dim = 0 }},
		{"neg init", func(c *Config) { c.InitStd = -0.1 }},
		{"neg steps", func(c *Config) { c.Steps = -5 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.mut(&cfg)
			if cfg.Validate() == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewTrainerErrors(t *testing.T) {
	d := smallData(t, 1)
	if _, err := NewTrainer(quickConfig(sampling.MAP), nil); err == nil {
		t.Error("nil data accepted")
	}
	bad := quickConfig(sampling.MAP)
	bad.Lambda = 2
	if _, err := NewTrainer(bad, d); err == nil {
		t.Error("invalid config accepted")
	}
	// A dataset where every active user has observed every item leaves no
	// negative to sample — untrainable.
	full, err := dataset.FromInteractions("s", 1, 2, []dataset.Interaction{
		{User: 0, Item: 0}, {User: 0, Item: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrainer(quickConfig(sampling.MAP), full); err == nil {
		t.Error("untrainable dataset accepted")
	}
}

func TestSinglePositiveUsersTrain(t *testing.T) {
	// Users with one observed item must still receive updates (the triple
	// degenerates to a scaled BPR pair) — critical on ultra-sparse corpora.
	d, err := dataset.FromInteractions("sp", 4, 10, []dataset.Interaction{
		{User: 0, Item: 1}, {User: 1, Item: 2}, {User: 2, Item: 3}, {User: 3, Item: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 2000
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatalf("single-positive dataset rejected: %v", err)
	}
	tr.Run()
	// Every user's factors must have moved off their tiny init scale: the
	// observed item should out-score a never-observed one on average.
	better := 0
	for u := int32(0); u < 4; u++ {
		obs := d.Positives(u)[0]
		if tr.Model().Score(u, obs) > tr.Model().Score(u, 9) {
			better++
		}
	}
	if better < 3 {
		t.Errorf("only %d/4 single-positive users learned their item", better)
	}
}

// checkStepGradient verifies that one kernel step at γ = 1 moves every
// parameter the step touches — U_u, and V_t and b_t of each item row —
// by exactly −∂f/∂Θ, comparing against central finite differences of
// TripleLoss. The trainer's LearnRate must be 1.
func checkStepGradient(t *testing.T, label string, tr *Trainer, u int32, items []int32, coef []float64) {
	t.Helper()
	cfg := tr.cfg
	before := tr.model.Clone()
	const h = 1e-6
	checkParam := func(name string, get func() float64, set func(float64)) {
		t.Helper()
		orig := get()
		set(orig + h)
		plus := tr.TripleLoss(u, items, coef)
		set(orig - h)
		minus := tr.TripleLoss(u, items, coef)
		set(orig)
		fd := (plus - minus) / (2 * h)
		kernelStep(NewKernel(tr.model, Plain), u, items, coef, 0,
			Rates{Learn: cfg.LearnRate, RegUser: cfg.RegUser, RegItem: cfg.RegItem, RegBias: cfg.RegBias})
		moved := get() - orig // = −γ·grad with γ = 1
		if !mathx.AlmostEqual(-moved, fd, 1e-4*(1+math.Abs(fd))) {
			t.Errorf("%s %s: update moved %v, finite diff %v", label, name, moved, fd)
		}
		if err := tr.model.SetFrom(before); err != nil { // fresh params for the next probe
			t.Fatal(err)
		}
	}
	for q := 0; q < cfg.Dim; q++ {
		checkParam(fmt.Sprintf("U_u[%d]", q),
			func() float64 { return tr.model.UserFactors(u)[q] },
			func(v float64) { tr.model.UserFactors(u)[q] = v })
	}
	for n, it := range items {
		if coef[n] == 0 {
			continue // an aliased repeat: the same vector as an earlier row
		}
		for q := 0; q < cfg.Dim; q++ {
			checkParam(fmt.Sprintf("V_%d[%d]", it, q),
				func() float64 { return tr.model.ItemFactors(it)[q] },
				func(v float64) { tr.model.ItemFactors(it)[q] = v })
		}
		checkParam(fmt.Sprintf("b_%d", it),
			func() float64 { return tr.model.Bias(it) },
			func(v float64) { tr.model.AddBias(it, v-tr.model.Bias(it)) })
	}
}

// TestGradientMatchesFiniteDifference holds CLAPF's coefficient vectors
// to the finite differences of the step loss across the λ range, on a
// hand-picked triple (see TestObjectiveGradients for drawn steps of every
// objective).
func TestGradientMatchesFiniteDifference(t *testing.T) {
	d := smallData(t, 2)
	for _, variant := range []sampling.Objective{sampling.MAP, sampling.MRR} {
		for _, lambda := range []float64{0, 0.3, 0.7, 1} {
			cfg := quickConfig(variant)
			cfg.Lambda = lambda
			cfg.LearnRate = 1 // step = exactly the negative gradient
			cfg.Seed = 5
			tr, err := NewTrainer(cfg, d)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up so factors are not at the tiny init scale.
			tr.RunSteps(200)

			u := tr.workers[0].pairs[0].User
			obs := d.Positives(u)
			coef, _ := riskCoeffs(variant, lambda)
			checkStepGradient(t, fmt.Sprintf("%v λ=%v", variant, lambda), tr, u,
				[]int32{obs[0], obs[1], unobservedItem(d, u)}, coef[:])
		}
	}
}

func unobservedItem(d *dataset.Dataset, u int32) int32 {
	for i := int32(0); i < int32(d.NumItems()); i++ {
		if !d.IsPositive(u, i) {
			return i
		}
	}
	panic("no unobserved item")
}

func TestLambdaZeroVariantsCoincide(t *testing.T) {
	// At λ = 0 both CLAPF-MAP and CLAPF-MRR reduce to the same BPR update,
	// so identically seeded trainers must produce identical models.
	d := smallData(t, 3)
	cfgA := quickConfig(sampling.MAP)
	cfgA.Lambda = 0
	cfgA.Steps = 5000
	cfgA.Seed = 11
	cfgB := quickConfig(sampling.MRR)
	cfgB.Lambda = 0
	cfgB.Steps = 5000
	cfgB.Seed = 11
	a, err := NewTrainer(cfgA, d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTrainer(cfgB, d)
	if err != nil {
		t.Fatal(err)
	}
	a.Run()
	b.Run()
	for u := int32(0); u < int32(d.NumUsers()); u += 7 {
		for i := int32(0); i < int32(d.NumItems()); i += 11 {
			if sa, sb := a.Model().Score(u, i), b.Model().Score(u, i); sa != sb {
				t.Fatalf("λ=0 variants diverge at (%d,%d): %v vs %v", u, i, sa, sb)
			}
		}
	}
}

func TestTrainingImprovesRanking(t *testing.T) {
	w, err := datagen.Generate(datagen.Profile{
		Name: "learn", Users: 80, Items: 150, Pairs: 3000,
		ZipfExp: 0.6, Dim: 5, Affinity: 7,
	}, mathx.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	train, test := dataset.Split(w.Data, mathx.NewRNG(5), 0.5)
	for _, variant := range []sampling.Objective{sampling.MAP, sampling.MRR} {
		cfg := quickConfig(variant)
		cfg.Steps = 120000
		cfg.Seed = 6
		tr, err := NewTrainer(cfg, train)
		if err != nil {
			t.Fatal(err)
		}
		before := eval.Evaluate(tr.Model(), train, test, eval.Options{Ks: []int{5}})
		tr.Run()
		after := eval.Evaluate(tr.Model(), train, test, eval.Options{Ks: []int{5}})
		if after.AUC < 0.7 {
			t.Errorf("%v: trained AUC = %.3f, want > 0.7", variant, after.AUC)
		}
		if after.AUC <= before.AUC {
			t.Errorf("%v: AUC did not improve: %.3f -> %.3f", variant, before.AUC, after.AUC)
		}
		if after.MAP <= before.MAP {
			t.Errorf("%v: MAP did not improve: %.4f -> %.4f", variant, before.MAP, after.MAP)
		}
	}
}

func TestTrainingDeterministic(t *testing.T) {
	d := smallData(t, 7)
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 3000
	cfg.Seed = 99
	run := func() float64 {
		tr, err := NewTrainer(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		tr.Run()
		var sum float64
		for u := int32(0); u < 10; u++ {
			sum += tr.Model().Score(u, 3)
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different models: %v vs %v", a, b)
	}
}

func TestGradMagnitudeBoundedAndResets(t *testing.T) {
	d := smallData(t, 8)
	cfg := quickConfig(sampling.MAP)
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunSteps(500)
	g := tr.GradMagnitude()
	if g < 0 || g > 1 {
		t.Errorf("grad magnitude %v outside [0,1]", g)
	}
	if again := tr.GradMagnitude(); again != 0 {
		t.Errorf("accumulator not reset: %v", again)
	}
}

func TestStepsDoneAndPartialRuns(t *testing.T) {
	d := smallData(t, 9)
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 1000
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	tr.RunSteps(300)
	if tr.StepsDone() != 300 {
		t.Errorf("StepsDone = %d, want 300", tr.StepsDone())
	}
	tr.Run() // completes the remaining 700
	if tr.StepsDone() != 1000 {
		t.Errorf("StepsDone = %d, want 1000", tr.StepsDone())
	}
}

func TestDSSTrainerRuns(t *testing.T) {
	d := smallData(t, 10)
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 3000
	cfg.Sampler = sampling.TripleConfig{Strategy: sampling.DSS, RefreshEvery: 500}
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	if tr.StepsDone() != 3000 {
		t.Errorf("StepsDone = %d", tr.StepsDone())
	}
	// Parameters must stay finite.
	u, v, b := tr.Model().RawParams()
	for _, s := range [][]float64{u, v, b} {
		for _, x := range s {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatal("non-finite parameter after DSS training")
			}
		}
	}
}

func TestNoBiasTraining(t *testing.T) {
	d := smallData(t, 11)
	cfg := quickConfig(sampling.MRR)
	cfg.UseBias = false
	cfg.Steps = 2000
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	if tr.Model().HasBias() {
		t.Error("model should be bias-free")
	}
}
