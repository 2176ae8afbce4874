package core

import (
	"math"
	"testing"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/mathx"
	"clapf/internal/sampling"
)

// multiConfig is the shared MF defaults with the CLAPF-Multi objective.
func multiConfig(trainPairs int, m Multi) Config {
	cfg := DefaultConfig(sampling.MAP, trainPairs)
	cfg.Objective = m
	return cfg
}

func TestMultiConfigValidate(t *testing.T) {
	base := multiConfig(100, DefaultMulti())
	lambdas := func(l1, l2, l3 float64) func(*Config) {
		return func(c *Config) { c.Objective = Multi{Lambda1: l1, Lambda2: l2, Lambda3: l3} }
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative lambda", lambdas(-0.1, 0.5, 0.3)},
		{"zero lambdas", lambdas(0, 0, 0)},
		{"zero rate", func(c *Config) { c.LearnRate = 0 }},
		{"neg reg", func(c *Config) { c.RegItem = -1 }},
		{"zero dim", func(c *Config) { c.Dim = 0 }},
		{"neg steps", func(c *Config) { c.Steps = -1 }},
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
		t.Errorf("default rejected: %v", err)
	}
}

func TestMultiLambdaNormalization(t *testing.T) {
	d := smallData(t, 21)
	cfg := multiConfig(d.NumPairs(), Multi{Lambda1: 2, Lambda2: 5, Lambda3: 3}) // sums to 10
	cfg.Steps = 100
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	// coef is (λ₂−λ₁, λ₁, λ₃−λ₂, −λ₃) of the normalized lambdas.
	coef := tr.sampler.(*multiSampler).coef
	l1, l3 := coef[1], -coef[3]
	l2 := coef[0] + l1
	if !mathx.AlmostEqual(l1+l2+l3, 1, 1e-12) {
		t.Errorf("lambdas not normalized: %v %v %v", l1, l2, l3)
	}
	if !mathx.AlmostEqual(l2, 0.5, 1e-12) {
		t.Errorf("normalized λ₂ = %v, want 0.5", l2)
	}
}

func TestMultiTrainerLearns(t *testing.T) {
	w, err := datagen.Generate(datagen.Profile{
		Name: "multi", Users: 80, Items: 150, Pairs: 3000,
		ZipfExp: 0.6, Dim: 5, Affinity: 7,
	}, mathx.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	train, test := dataset.Split(w.Data, mathx.NewRNG(23), 0.5)
	cfg := multiConfig(train.NumPairs(), DefaultMulti())
	cfg.Dim = 8
	cfg.Steps = 120000
	cfg.Seed = 24
	tr, err := NewTrainer(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	if tr.StepsDone() != 120000 {
		t.Errorf("StepsDone = %d", tr.StepsDone())
	}
	res := eval.Evaluate(tr.Model(), train, test, eval.Options{Ks: []int{5}})
	if res.AUC < 0.65 {
		t.Errorf("CLAPF-Multi AUC = %.3f, want >= 0.65", res.AUC)
	}
	// Finite parameters.
	u, v, b := tr.Model().RawParams()
	for _, s := range [][]float64{u, v, b} {
		for _, x := range s {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatal("non-finite parameter")
			}
		}
	}
}

func TestMultiTrainerDeterministic(t *testing.T) {
	d := smallData(t, 25)
	run := func() float64 {
		cfg := multiConfig(d.NumPairs(), DefaultMulti())
		cfg.Dim = 6
		cfg.Steps = 3000
		cfg.Seed = 26
		tr, err := NewTrainer(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		tr.Run()
		return tr.Model().Score(1, 2)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("not deterministic: %v vs %v", a, b)
	}
}

func TestMultiTrainerErrors(t *testing.T) {
	if _, err := NewTrainer(multiConfig(10, DefaultMulti()), nil); err == nil {
		t.Error("nil data accepted")
	}
	// A world with only one unobserved item per user cannot host distinct
	// v and j.
	full, err := dataset.FromInteractions("f", 1, 2, []dataset.Interaction{{User: 0, Item: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTrainer(multiConfig(1, DefaultMulti()), full); err == nil {
		t.Error("insufficient negatives accepted")
	}
}
