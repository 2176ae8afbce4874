package experiments

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"clapf/internal/baselines"
	"clapf/internal/core"
	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/sampling"
)

// goldenFile pins the full experiment pipeline — data generation, split,
// training, full-ranking evaluation — to known-good numbers. Any change
// to an RNG stream, sampler, update rule, or metric implementation shows
// up here as a drift, deliberate or not.
const goldenFile = "testdata/golden_metrics.json"

// goldenTolerance absorbs float formatting and cross-platform libm noise;
// the pipeline itself is bit-deterministic under fixed seeds.
const goldenTolerance = 1e-6

type goldenEntry struct {
	Prec5 float64 `json:"prec5"`
	MRR   float64 `json:"mrr"`
}

type goldenDoc struct {
	Profile string                 `json:"profile"`
	Seed    uint64                 `json:"seed"`
	Note    string                 `json:"note"`
	Methods map[string]goldenEntry `json:"methods"`
}

// goldenSetup is a scaled ML100K profile small enough for unit tests but
// large enough that the methods separate.
func goldenSetup() Setup {
	return Setup{
		Profile:      datagen.Table1Profiles[0].Scaled(0.12),
		Scale:        1, // profile is pre-scaled
		Replicates:   2,
		Seed:         9,
		Ks:           []int{5},
		EvalMaxUsers: 60,
	}
}

// goldenMethods is the pinned subset: the trivial baseline, the pairwise
// reference, both CLAPF variants, and the DSS-accelerated one.
func goldenMethods() []Method {
	budget := BudgetConfig{EpochEquivalents: 8}
	return []Method{
		fitterMethod("PopRank", func(_ *dataset.Dataset, _ uint64) (fitScorer, error) {
			return baselines.NewPopRank(), nil
		}),
		trainerMethod("BPR", budget, func(cfg *core.Config) { cfg.Objective = core.BPR{} }),
		clapfMethod("CLAPF-MAP", sampling.MAP, sampling.Uniform, 0.4, budget),
		clapfMethod("CLAPF-MRR", sampling.MRR, sampling.Uniform, 0.6, budget),
		clapfMethod("CLAPF+DSS-MAP", sampling.MAP, sampling.DSS, 0.4, budget),
	}
}

func runGolden(t *testing.T) goldenDoc {
	t.Helper()
	s := goldenSetup()
	rows, _, err := RunComparison(s, goldenMethods())
	if err != nil {
		t.Fatal(err)
	}
	doc := goldenDoc{
		Profile: s.Profile.Name,
		Seed:    s.Seed,
		Note:    "regenerate with UPDATE_GOLDEN=1 go test ./internal/experiments/ -run TestGoldenMetrics",
		Methods: make(map[string]goldenEntry, len(rows)),
	}
	for _, row := range rows {
		doc.Methods[row.Method] = goldenEntry{Prec5: row.Prec5.Mean, MRR: row.MRR.Mean}
	}
	return doc
}

// TestGoldenMetrics fails when the fixed-seed pipeline drifts from the
// checked-in numbers. Set UPDATE_GOLDEN=1 to re-pin after an intentional
// change (and review the diff: silent metric movement is the bug class
// this test exists to catch).
func TestGoldenMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains five methods")
	}
	got := runGolden(t)

	if os.Getenv("UPDATE_GOLDEN") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file updated: %s", goldenFile)
		return
	}

	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("golden file missing (generate with UPDATE_GOLDEN=1): %v", err)
	}
	var want goldenDoc
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	if want.Profile != got.Profile || want.Seed != got.Seed {
		t.Fatalf("golden fixture mismatch: file is %s/seed %d, test runs %s/seed %d",
			want.Profile, want.Seed, got.Profile, got.Seed)
	}
	for name, w := range want.Methods {
		g, ok := got.Methods[name]
		if !ok {
			t.Errorf("method %s in golden file but not produced", name)
			continue
		}
		if d := math.Abs(g.Prec5 - w.Prec5); d > goldenTolerance {
			t.Errorf("%s Prec@5 drifted: got %.9f, golden %.9f (|Δ| = %.2e)", name, g.Prec5, w.Prec5, d)
		}
		if d := math.Abs(g.MRR - w.MRR); d > goldenTolerance {
			t.Errorf("%s MRR drifted: got %.9f, golden %.9f (|Δ| = %.2e)", name, g.MRR, w.MRR, d)
		}
	}
	for name := range got.Methods {
		if _, ok := want.Methods[name]; !ok {
			t.Errorf("method %s produced but missing from golden file (regenerate)", name)
		}
	}

	// The pinned numbers must also stay *sane*: CLAPF beating PopRank on
	// MRR is the paper's core claim at any scale.
	if got.Methods["CLAPF-MAP"].MRR <= got.Methods["PopRank"].MRR*0.8 {
		t.Errorf("CLAPF-MAP MRR %.4f collapsed below PopRank %.4f",
			got.Methods["CLAPF-MAP"].MRR, got.Methods["PopRank"].MRR)
	}
}
