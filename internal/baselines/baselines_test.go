package baselines

import (
	"math"
	"testing"

	"clapf/internal/core"
	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// worldSplit generates a learnable world and a 50/50 split shared by the
// baseline tests.
func worldSplit(t *testing.T) (w *datagen.World, train, test *dataset.Dataset) {
	t.Helper()
	var err error
	w, err = datagen.Generate(datagen.Profile{
		Name: "bl", Users: 120, Items: 180, Pairs: 5000,
		ZipfExp: 0.6, Dim: 5, Affinity: 6,
	}, mathx.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	train, test = dataset.Split(w.Data, mathx.NewRNG(22), 0.5)
	return
}

func evalAUC(t *testing.T, r eval.Scorer, train, test *dataset.Dataset) eval.Result {
	t.Helper()
	return eval.Evaluate(r, train, test, eval.Options{Ks: []int{5}})
}

// objectiveConfig is the shared MF defaults (d = 20, γ = 0.05, α = 0.01,
// 30 passes) with one of the trainer's objectives: BPR and MPR, which
// this package's tests have always covered, are core.Trainer runs.
func objectiveConfig(o core.Objective, trainPairs int) core.Config {
	cfg := core.DefaultConfig(sampling.MAP, trainPairs)
	cfg.Objective = o
	return cfg
}

// fit trains cfg to its step budget on the one trainer.
func fit(t *testing.T, cfg core.Config, train *dataset.Dataset) *mf.Model {
	t.Helper()
	tr, err := core.NewTrainer(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	if trip := tr.GuardTrip(); trip != nil || tr.StepsDone() != cfg.Steps {
		t.Fatalf("ran %d of %d steps, trip %v", tr.StepsDone(), cfg.Steps, trip)
	}
	return tr.Model()
}

func TestPopRankRecoversPopularity(t *testing.T) {
	train, err := dataset.FromInteractions("p", 3, 4, []dataset.Interaction{
		{User: 0, Item: 1}, {User: 1, Item: 1}, {User: 2, Item: 1},
		{User: 0, Item: 2}, {User: 1, Item: 2}, {User: 0, Item: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPopRank()
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 4)
	p.ScoreAll(0, out)
	want := []float64{0, 3, 2, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("score[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Identical for every user.
	out2 := make([]float64, 4)
	p.ScoreAll(2, out2)
	for i := range out {
		if out[i] != out2[i] {
			t.Error("PopRank is not user-independent")
		}
	}
}

func TestPopRankBeatsNothing(t *testing.T) {
	_, train, test := splitOnly(t)
	p := NewPopRank()
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	res := evalAUC(t, p, train, test)
	if res.AUC <= 0.5 {
		t.Errorf("PopRank AUC = %.3f, want > 0.5 on long-tail data", res.AUC)
	}
}

func splitOnly(t *testing.T) (*datagen.World, *dataset.Dataset, *dataset.Dataset) {
	w, train, test := worldSplit(t)
	return w, train, test
}

func TestRandomWalkConfigValidation(t *testing.T) {
	if _, err := NewRandomWalk(RandomWalkConfig{WalkLength: 0, NumWalks: 1}); err == nil {
		t.Error("zero walk length accepted")
	}
	if _, err := NewRandomWalk(RandomWalkConfig{WalkLength: 1, NumWalks: 0}); err == nil {
		t.Error("zero walks accepted")
	}
	if _, err := NewRandomWalk(RandomWalkConfig{WalkLength: 1, NumWalks: 1, MinVisits: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestRandomWalkPersonalizes(t *testing.T) {
	_, train, test := splitOnly(t)
	rw, err := NewRandomWalk(RandomWalkConfig{WalkLength: 20, NumWalks: 100, MinVisits: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Fit(train); err != nil {
		t.Fatal(err)
	}
	res := evalAUC(t, rw, train, test)
	if res.AUC <= 0.5 {
		t.Errorf("RandomWalk AUC = %.3f, want > 0.5", res.AUC)
	}
	// Deterministic per user.
	a := make([]float64, train.NumItems())
	b := make([]float64, train.NumItems())
	rw.ScoreAll(3, a)
	rw.ScoreAll(3, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomWalk scoring not deterministic")
		}
	}
}

func TestRandomWalkColdUser(t *testing.T) {
	train, err := dataset.FromInteractions("cold", 2, 3, []dataset.Interaction{{User: 0, Item: 0}})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := NewRandomWalk(DefaultRandomWalkConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Fit(train); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	rw.ScoreAll(1, out) // user 1 has no history
	for _, v := range out {
		if v != 0 {
			t.Error("cold user should score all zeros")
		}
	}
}

func TestWMFLearns(t *testing.T) {
	_, train, test := splitOnly(t)
	cfg := DefaultWMFConfig()
	cfg.Dim = 10
	cfg.Sweeps = 8
	w, err := NewWMF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Fit(train); err != nil {
		t.Fatal(err)
	}
	res := evalAUC(t, w, train, test)
	if res.AUC < 0.6 {
		t.Errorf("WMF AUC = %.3f, want >= 0.6", res.AUC)
	}
}

func TestWMFValidation(t *testing.T) {
	bad := []WMFConfig{
		{Dim: 0, Alpha: 1, Reg: 1, Sweeps: 1},
		{Dim: 5, Alpha: -1, Reg: 1, Sweeps: 1},
		{Dim: 5, Alpha: 1, Reg: 0, Sweeps: 1},
		{Dim: 5, Alpha: 1, Reg: 1, Sweeps: 0},
	}
	for i, cfg := range bad {
		if _, err := NewWMF(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBPRLearns(t *testing.T) {
	_, train, test := splitOnly(t)
	cfg := objectiveConfig(core.BPR{}, train.NumPairs())
	cfg.Dim = 10
	cfg.Steps = 80000
	cfg.Seed = 3
	res := evalAUC(t, fit(t, cfg, train), train, test)
	if res.AUC < 0.65 {
		t.Errorf("BPR AUC = %.3f, want >= 0.65", res.AUC)
	}
}

func TestBPRDNSAtLeastAsGood(t *testing.T) {
	_, train, test := splitOnly(t)
	mk := func(s sampling.Negatives) eval.Result {
		cfg := objectiveConfig(core.BPR{Negatives: s, Candidates: 6}, train.NumPairs())
		cfg.Dim = 10
		cfg.Steps = 40000
		cfg.Seed = 4
		return evalAUC(t, fit(t, cfg, train), train, test)
	}
	uni := mk(sampling.UniformNegatives)
	dns := mk(sampling.DNSNegatives)
	// DNS should not be dramatically worse; it usually converges faster.
	if dns.MAP < uni.MAP*0.8 {
		t.Errorf("DNS MAP %.4f collapsed vs uniform %.4f", dns.MAP, uni.MAP)
	}
}

func TestBPRValidation(t *testing.T) {
	_, train, _ := splitOnly(t)
	bad := func(name string, o core.Objective, mut func(*core.Config)) {
		t.Helper()
		cfg := objectiveConfig(o, train.NumPairs())
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s passed Validate", name)
		}
		if _, err := core.NewTrainer(cfg, train); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad("zero dim", core.BPR{}, func(c *core.Config) { c.Dim = 0 })
	bad("zero rate", core.BPR{}, func(c *core.Config) { c.LearnRate = 0 })
	bad("DNS without candidates", core.BPR{Negatives: sampling.DNSNegatives}, func(*core.Config) {})
	bad("unknown sampler", core.BPR{Negatives: 99}, func(*core.Config) {})
}

func TestMPRLearns(t *testing.T) {
	_, train, test := splitOnly(t)
	cfg := objectiveConfig(core.MPR{Rho: 0.6}, train.NumPairs())
	cfg.Dim = 10
	cfg.Steps = 80000
	cfg.Seed = 5
	res := evalAUC(t, fit(t, cfg, train), train, test)
	if res.AUC < 0.6 {
		t.Errorf("MPR AUC = %.3f, want >= 0.6", res.AUC)
	}
}

func TestMPRValidation(t *testing.T) {
	_, train, _ := splitOnly(t)
	for _, rho := range []float64{1.5, -0.1, math.NaN(), math.Inf(1)} {
		cfg := objectiveConfig(core.MPR{Rho: rho}, train.NumPairs())
		if cfg.Validate() == nil {
			t.Errorf("rho = %v passed Validate", rho)
		}
		if _, err := core.NewTrainer(cfg, train); err == nil {
			t.Errorf("rho = %v accepted", rho)
		}
	}
}

func TestCLiMFImprovesMRR(t *testing.T) {
	_, train, test := splitOnly(t)
	cfg := DefaultCLiMFConfig()
	cfg.Dim = 10
	cfg.LearnRate = 0.01
	cfg.Epochs = 1
	c, err := NewCLiMF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fit(train); err != nil {
		t.Fatal(err)
	}
	one := evalAUC(t, c, train, test)

	cfg.Epochs = 25
	c2, err := NewCLiMF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Fit(train); err != nil {
		t.Fatal(err)
	}
	many := evalAUC(t, c2, train, test)
	if many.MRR <= one.MRR {
		t.Errorf("CLiMF MRR did not improve with epochs: %.4f -> %.4f", one.MRR, many.MRR)
	}
}

func TestCLiMFValidation(t *testing.T) {
	if _, err := NewCLiMF(CLiMFConfig{Dim: 0, LearnRate: 1, Epochs: 1}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewCLiMF(CLiMFConfig{Dim: 5, LearnRate: 0.1, Epochs: 0}); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestAllBaselinesBeatRandomRanking(t *testing.T) {
	_, train, test := splitOnly(t)
	pop := NewPopRank()
	if err := pop.Fit(train); err != nil {
		t.Fatal(err)
	}
	bprCfg := objectiveConfig(core.BPR{}, train.NumPairs())
	bprCfg.Dim = 10
	bprCfg.Steps = 40000
	for name, r := range map[string]eval.Scorer{"PopRank": pop, "BPR": fit(t, bprCfg, train)} {
		res := evalAUC(t, r, train, test)
		if res.AUC <= 0.52 {
			t.Errorf("%s AUC = %.3f, not above chance", name, res.AUC)
		}
	}
}

func TestBPRAoBPRSampler(t *testing.T) {
	_, train, test := splitOnly(t)
	cfg := objectiveConfig(core.BPR{Negatives: sampling.AoBPRNegatives}, train.NumPairs())
	cfg.Dim = 10
	cfg.Steps = 40000
	cfg.Seed = 6
	res := evalAUC(t, fit(t, cfg, train), train, test)
	if res.AUC < 0.55 {
		t.Errorf("BPR-AoBPR AUC = %.3f, want > 0.55", res.AUC)
	}
}

func TestGBPRLearns(t *testing.T) {
	_, train, test := splitOnly(t)
	cfg := DefaultGBPRConfig(train.NumPairs())
	cfg.Dim = 10
	cfg.Steps = 60000
	cfg.Seed = 7
	g, err := NewGBPR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	res := evalAUC(t, g, train, test)
	if res.AUC < 0.6 {
		t.Errorf("GBPR AUC = %.3f, want >= 0.6", res.AUC)
	}
}

func TestGBPRValidation(t *testing.T) {
	bad := []GBPRConfig{
		{Dim: 0, LearnRate: 0.1, GroupSize: 3},
		{Dim: 5, LearnRate: 0, GroupSize: 3},
		{Dim: 5, LearnRate: 0.1, Rho: 2, GroupSize: 3},
		{Dim: 5, LearnRate: 0.1, GroupSize: 0},
		{Dim: 5, LearnRate: 0.1, Reg: -1, GroupSize: 3},
	}
	for i, cfg := range bad {
		if _, err := NewGBPR(cfg); err == nil {
			t.Errorf("bad GBPR config %d accepted", i)
		}
	}
}

func TestGBPRGroupCoupling(t *testing.T) {
	// Two users share an item; training on one user's records must move
	// the co-consumer's factors too (the whole point of GBPR).
	train, err := dataset.FromInteractions("g", 3, 6, []dataset.Interaction{
		{User: 0, Item: 0}, {User: 1, Item: 0}, {User: 2, Item: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGBPRConfig(train.NumPairs())
	cfg.Dim = 4
	cfg.Steps = 500
	cfg.Seed = 8
	g, err := NewGBPR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Fit(train); err != nil {
		t.Fatal(err)
	}
	// Users 0 and 1 co-consume item 0: their factors should be closer to
	// each other than to user 2's.
	dist := func(a, b int32) float64 {
		fa, fb := g.Model().UserFactors(a), g.Model().UserFactors(b)
		var s float64
		for q := range fa {
			d := fa[q] - fb[q]
			s += d * d
		}
		return s
	}
	if dist(0, 1) >= dist(0, 2) {
		t.Errorf("co-consumers not pulled together: d(0,1)=%.4f, d(0,2)=%.4f", dist(0, 1), dist(0, 2))
	}
}

func TestBPRABSSampler(t *testing.T) {
	_, train, test := splitOnly(t)
	cfg := objectiveConfig(core.BPR{Negatives: sampling.ABSNegatives, Candidates: 6}, train.NumPairs())
	cfg.Dim = 10
	cfg.Steps = 40000
	cfg.Seed = 9
	if res := evalAUC(t, fit(t, cfg, train), train, test); res.AUC < 0.55 {
		t.Errorf("BPR-ABS AUC = %.3f", res.AUC)
	}
	cfg.Objective = core.BPR{Negatives: sampling.ABSNegatives}
	if _, err := core.NewTrainer(cfg, train); err == nil {
		t.Error("ABS without candidates accepted")
	}
}
