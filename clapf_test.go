package clapf

import (
	"bytes"
	"strings"
	"testing"
)

// TestEndToEnd exercises the full public API surface: generate → split →
// train → recommend → evaluate → persist → reload.
func TestEndToEnd(t *testing.T) {
	profile := Profile{
		Name: "e2e", Users: 100, Items: 200, Pairs: 4000,
		ZipfExp: 0.6, Dim: 5, Affinity: 6,
	}
	data, err := GenerateDataset(profile, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	train, test := Split(data, 8)
	if train.NumPairs()+test.NumPairs() != data.NumPairs() {
		t.Fatal("split lost pairs")
	}

	cfg := DefaultConfig(MAP, train.NumPairs())
	cfg.Dim = 8
	cfg.Steps = 60000
	cfg.Seed = 9
	trainer, err := NewTrainer(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	trainer.Run()

	res := Evaluate(trainer.Model(), train, test, EvalOptions{Ks: []int{5, 10}})
	if res.AUC < 0.65 {
		t.Errorf("end-to-end AUC = %.3f, want >= 0.65", res.AUC)
	}

	recs := Recommend(trainer.Model(), train, 3, 10)
	if len(recs) != 10 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	for i, r := range recs {
		if train.IsPositive(3, r.Item) {
			t.Errorf("recommendation %d is an already-observed item", r.Item)
		}
		if i > 0 && recs[i-1].Score < r.Score {
			t.Error("recommendations not in descending score order")
		}
	}

	// Persistence round trip must preserve scores exactly.
	var buf bytes.Buffer
	if err := SaveModel(&buf, trainer.Model()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Score(3, recs[0].Item) != trainer.Model().Score(3, recs[0].Item) {
		t.Error("persistence changed scores")
	}
}

func TestDatasetHelpers(t *testing.T) {
	d, err := NewDataset("h", 3, 4, []Interaction{{User: 0, Item: 1}, {User: 1, Item: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDatasetTSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatasetTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPairs() != 2 {
		t.Errorf("TSV round trip lost pairs")
	}

	r, err := DatasetFromRatings("r", 2, 2, []Rating{
		{User: 0, Item: 0, Score: 5},
		{User: 0, Item: 1, Score: 2},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPairs() != 1 || !r.IsPositive(0, 0) {
		t.Error("rating threshold wrong")
	}
}

func TestProfileAccessors(t *testing.T) {
	if len(Profiles()) != 6 {
		t.Errorf("Profiles() returned %d entries", len(Profiles()))
	}
	if ProfileML100K.Users != 943 || ProfileNetflix.Items != 17770 {
		t.Error("profile constants wrong")
	}
	if _, err := ProfileByName("ml20m"); err != nil {
		t.Errorf("ProfileByName: %v", err)
	}
}

func TestSplitFrac(t *testing.T) {
	data, err := GenerateDataset(Profile{
		Name: "sf", Users: 50, Items: 100, Pairs: 1000, Dim: 4, ZipfExp: 0.7, Affinity: 3,
	}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	train, test := SplitFrac(data, 3, 0.8)
	if train.NumPairs() <= test.NumPairs() {
		t.Errorf("80/20 split unbalanced: %d vs %d", train.NumPairs(), test.NumPairs())
	}
}

func TestVariantsExposed(t *testing.T) {
	if MAP.String() != "MAP" || MRR.String() != "MRR" {
		t.Error("variant constants wrong")
	}
	if SamplerDSS.String() != "DSS" || SamplerUniform.String() != "Uniform" {
		t.Error("sampler constants wrong")
	}
}

func TestFacadeFoldInAndSimilar(t *testing.T) {
	data, err := GenerateDataset(Profile{
		Name: "fs", Users: 60, Items: 100, Pairs: 2000, Dim: 4, ZipfExp: 0.6, Affinity: 6,
	}, 1, 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(MAP, data.NumPairs())
	cfg.Dim = 8
	cfg.Steps = 20000
	tr, err := NewTrainer(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()

	history := []int32{3, 7, 11}
	uf, err := FoldInUser(tr.Model(), history, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	recs := RecommendFoldIn(tr.Model(), uf, history, 5)
	if len(recs) != 5 {
		t.Fatalf("got %d fold-in recommendations", len(recs))
	}
	for _, r := range recs {
		for _, h := range history {
			if r.Item == h {
				t.Error("history item recommended back")
			}
		}
	}

	sims, err := SimilarItems(tr.Model(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 4 || sims[0].Item == 3 {
		t.Errorf("similar items wrong: %+v", sims)
	}
}

func TestFacadeLoadRatings(t *testing.T) {
	in := "1\t10\t5\t0\n1\t11\t2\t0\n2\t10\t4\t0\n"
	d, mapping, err := LoadRatings(strings.NewReader(in), FormatML100K, "real", 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPairs() != 2 || len(mapping.Users) != 2 {
		t.Errorf("parsed %d pairs, %d users", d.NumPairs(), len(mapping.Users))
	}
}

func TestFacadeMultiTrainer(t *testing.T) {
	data, err := GenerateDataset(Profile{
		Name: "fm", Users: 50, Items: 90, Pairs: 1500, Dim: 4, ZipfExp: 0.6, Affinity: 6,
	}, 1, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(MAP, data.NumPairs())
	cfg.Dim = 6
	cfg.Steps = 5000
	tr, err := NewMultiTrainer(cfg, DefaultMulti(), data)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	if tr.StepsDone() != 5000 {
		t.Errorf("StepsDone = %d", tr.StepsDone())
	}
	// BPR is an objective of the same Trainer, workers included.
	cfg.Objective = BPR{Negatives: NegativesDNS, Candidates: 5}
	bpr, err := NewParallelTrainer(cfg, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	bpr.Run()
	if bpr.StepsDone() != 5000 || bpr.Workers() != 2 {
		t.Errorf("BPR: StepsDone = %d on %d workers", bpr.StepsDone(), bpr.Workers())
	}
}
