package neural

import (
	"testing"
	"time"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/mathx"
)

func neuralSplit(t *testing.T) (train, test *dataset.Dataset) {
	t.Helper()
	// Neural models need realistic sparsity: at high density the pointwise
	// all-unobserved-is-negative training actively anti-learns the held-out
	// positives (the overfitting pathology §6.4.1 attributes to deep models).
	w, err := datagen.Generate(datagen.Profile{
		Name: "nn", Users: 300, Items: 600, Pairs: 7000,
		ZipfExp: 0.6, Dim: 4, Affinity: 6,
	}, mathx.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	return dataset.Split(w.Data, mathx.NewRNG(32), 0.5)
}

func TestNeuMFConfigValidation(t *testing.T) {
	bad := []NeuMFConfig{
		{GMFDim: 0, MLPDim: 4, Hidden: []int{4, 1}, LearnRate: 0.1, NegRatio: 1, Epochs: 1},
		{GMFDim: 4, MLPDim: 0, Hidden: []int{4, 1}, LearnRate: 0.1, NegRatio: 1, Epochs: 1},
		{GMFDim: 4, MLPDim: 4, Hidden: nil, LearnRate: 0.1, NegRatio: 1, Epochs: 1},
		{GMFDim: 4, MLPDim: 4, Hidden: []int{4, 1}, LearnRate: 0, NegRatio: 1, Epochs: 1},
		{GMFDim: 4, MLPDim: 4, Hidden: []int{4, 1}, LearnRate: 0.1, NegRatio: 0, Epochs: 1},
		{GMFDim: 4, MLPDim: 4, Hidden: []int{4, 1}, LearnRate: 0.1, NegRatio: 1, Epochs: 0},
		{GMFDim: 4, MLPDim: 4, Hidden: []int{4, -1}, LearnRate: 0.1, NegRatio: 1, Epochs: 1},
	}
	for i, cfg := range bad {
		if _, err := NewNeuMF(cfg); err == nil {
			t.Errorf("bad NeuMF config %d accepted", i)
		}
	}
	if _, err := NewNeuMF(DefaultNeuMFConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNeuMFLearns(t *testing.T) {
	train, test := neuralSplit(t)
	cfg := DefaultNeuMFConfig()
	cfg.Epochs = 6
	cfg.Seed = 41
	m, err := NewNeuMF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	res := eval.Evaluate(m, train, test, eval.Options{Ks: []int{5}})
	if res.AUC < 0.7 {
		t.Errorf("NeuMF AUC = %.3f, want >= 0.7", res.AUC)
	}
}

func TestNeuPRConfigValidation(t *testing.T) {
	bad := []NeuPRConfig{
		{Dim: 0, Hidden: []int{4, 1}, LearnRate: 0.1, Steps: 1},
		{Dim: 4, Hidden: []int{4, 2}, LearnRate: 0.1, Steps: 1}, // must end in 1
		{Dim: 4, Hidden: nil, LearnRate: 0.1, Steps: 1},
		{Dim: 4, Hidden: []int{4, 1}, LearnRate: 0, Steps: 1},
		{Dim: 4, Hidden: []int{4, 1}, LearnRate: 0.1, Steps: -1},
	}
	for i, cfg := range bad {
		if _, err := NewNeuPR(cfg); err == nil {
			t.Errorf("bad NeuPR config %d accepted", i)
		}
	}
}

func TestNeuPRLearns(t *testing.T) {
	train, test := neuralSplit(t)
	cfg := DefaultNeuPRConfig(train.NumPairs())
	cfg.Steps = 50000
	cfg.Seed = 42
	m, err := NewNeuPR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	res := eval.Evaluate(m, train, test, eval.Options{Ks: []int{5}})
	if res.AUC < 0.65 {
		t.Errorf("NeuPR AUC = %.3f, want >= 0.65", res.AUC)
	}
}

func TestDeepICFConfigValidation(t *testing.T) {
	bad := []DeepICFConfig{
		{Dim: 0, Hidden: []int{4, 1}, LearnRate: 0.1, NegRatio: 1, Epochs: 1},
		{Dim: 4, Hidden: []int{4, 3}, LearnRate: 0.1, NegRatio: 1, Epochs: 1},
		{Dim: 4, Hidden: []int{4, 1}, Beta: 2, LearnRate: 0.1, NegRatio: 1, Epochs: 1},
		{Dim: 4, Hidden: []int{4, 1}, MaxHist: -1, LearnRate: 0.1, NegRatio: 1, Epochs: 1},
		{Dim: 4, Hidden: []int{4, 1}, LearnRate: 0.1, NegRatio: 0, Epochs: 1},
	}
	for i, cfg := range bad {
		if _, err := NewDeepICF(cfg); err == nil {
			t.Errorf("bad DeepICF config %d accepted", i)
		}
	}
}

func TestDeepICFLearns(t *testing.T) {
	train, test := neuralSplit(t)
	cfg := DefaultDeepICFConfig()
	cfg.Epochs = 4
	cfg.Seed = 43
	m, err := NewDeepICF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	res := eval.Evaluate(m, train, test, eval.Options{Ks: []int{5}})
	if res.AUC < 0.55 {
		t.Errorf("DeepICF AUC = %.3f, want >= 0.55", res.AUC)
	}
}

func TestDeepICFHistoryCap(t *testing.T) {
	train, _ := neuralSplit(t)
	cfg := DefaultDeepICFConfig()
	cfg.MaxHist = 4
	cfg.Epochs = 1
	m, err := NewDeepICF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	for _, u := range train.UsersWithAtLeast(10)[:3] {
		obs := train.Positives(u)
		h := m.history(u, obs[0])
		if len(h) > 4 {
			t.Fatalf("history length %d exceeds cap", len(h))
		}
		for _, l := range h {
			if l == obs[0] {
				t.Fatal("target item leaked into its own history")
			}
		}
	}
}

func TestNeuralModelsDeterministic(t *testing.T) {
	train, _ := neuralSplit(t)
	score := func() float64 {
		cfg := DefaultNeuMFConfig()
		cfg.Epochs = 2
		cfg.Seed = 77
		m, err := NewNeuMF(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, train.NumItems())
		m.ScoreAll(5, out)
		return mathx.Sum(out)
	}
	if a, b := score(), score(); a != b {
		t.Errorf("NeuMF not deterministic under fixed seed: %v vs %v", a, b)
	}
}

// TestFitSkipsSaturatedUsers: a user who observed the whole catalog has
// no negative to pair with, so NeuMF and DeepICF train without that
// user's records (as NeuPR always has) instead of rejecting candidates
// forever.
func TestFitSkipsSaturatedUsers(t *testing.T) {
	train, err := dataset.FromInteractions("sat", 2, 3, []dataset.Interaction{
		{User: 0, Item: 0}, {User: 0, Item: 1}, {User: 0, Item: 2}, // saturated
		{User: 1, Item: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	nc := DefaultNeuMFConfig()
	nc.Epochs = 2
	neumf, err := NewNeuMF(nc)
	if err != nil {
		t.Fatal(err)
	}
	dc := DefaultDeepICFConfig()
	dc.Epochs = 2
	deepicf, err := NewDeepICF(dc)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]interface {
		Fit(*dataset.Dataset) error
	}{"NeuMF": neumf, "DeepICF": deepicf} {
		done := make(chan error, 1)
		go func() { done <- m.Fit(train) }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: Fit hangs on a user who observed every item", name)
		}
	}
}
