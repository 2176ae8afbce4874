package eval

import (
	"math"
	"testing"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/score"
)

// TestFloat32ParityWithFloat64 is the float32 serving representation's
// quality gate (run by name from scripts/check.sh): ranking with
// mf.QuantizeF32(m) must be statistically invisible next to ranking with
// m. The model is a full-size ML100K-shaped world's ground-truth factors
// plus a popularity bias, so the metrics are far from zero and a reordered
// top-5 shows.
//
// Two assertions over matched per-user Prec@5/NDCG@5 samples from
// PerUserAtK. The budget as documented: a Welch t-test cannot tell the
// representations apart (p > 0.05). Welch alone is blind to a rounding
// that reshuffles a few percent of users without moving the mean (zeroing
// the low 16 mantissa bits reads p > 0.9), so the pairs are also compared
// user by user: float32 rounding changes no user's sample here, the
// 16-bit truncation changes 27 of 924, and the gate allows 1 %.
func TestFloat32ParityWithFloat64(t *testing.T) {
	prof, err := datagen.ProfileByName("ML100K")
	if err != nil {
		t.Fatal(err)
	}
	w, err := datagen.Generate(prof, mathx.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	bias := make([]float64, prof.Items)
	for i := range bias {
		bias[i] = 0.05 * math.Log(w.Popularity[i])
	}
	m, err := mf.FromRaw(mf.Config{
		NumUsers: prof.Users, NumItems: prof.Items, Dim: w.Dim, UseBias: true,
	}, w.TrueUser, w.TrueItem, bias)
	if err != nil {
		t.Fatal(err)
	}
	train, test := dataset.Split(w.Data, mathx.NewRNG(12), 0.8)

	prec64, ndcg64 := PerUserAtK(m, train, test, 5)
	prec32, ndcg32 := PerUserAtK(score.NewEngine(mf.QuantizeF32(m)), train, test, 5)

	// PerUserAtK's own contract: one matched sample per evaluated user,
	// whose means are Evaluate's aggregates.
	ref := Evaluate(m, train, test, Options{Ks: []int{5}})
	for _, xs := range [][]float64{prec64, ndcg64, prec32, ndcg32} {
		if len(xs) != ref.Users {
			t.Fatalf("%d samples, want one per evaluated user (%d)", len(xs), ref.Users)
		}
	}
	at5 := ref.MustAt(5)
	if d := math.Abs(mathx.Mean(prec64) - at5.Prec); d > 1e-12 {
		t.Errorf("mean per-user Prec@5 = %v, Evaluate says %v", mathx.Mean(prec64), at5.Prec)
	}
	if d := math.Abs(mathx.Mean(ndcg64) - at5.NDCG); d > 1e-12 {
		t.Errorf("mean per-user NDCG@5 = %v, Evaluate says %v", mathx.Mean(ndcg64), at5.NDCG)
	}
	if at5.Prec < 0.1 {
		t.Fatalf("Prec@5 = %v: the fixture ranks too badly for parity to mean anything", at5.Prec)
	}

	for _, c := range []struct {
		name     string
		f64, f32 []float64
	}{{"Prec@5", prec64, prec32}, {"NDCG@5", ndcg64, ndcg32}} {
		res, err := mathx.WelchTTest(c.f64, c.f32)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.P <= 0.05 {
			t.Errorf("%s: float32 distinguishable from float64, Welch p = %v (means %v vs %v)",
				c.name, res.P, mathx.Mean(c.f32), mathx.Mean(c.f64))
		}
	}
	moved := 0
	for i := range prec64 {
		if prec64[i] != prec32[i] || ndcg64[i] != ndcg32[i] {
			moved++
		}
	}
	if limit := len(prec64) / 100; moved > limit {
		t.Errorf("float32 changed the top-5 sample of %d of %d users, want <= %d", moved, len(prec64), limit)
	}
}
