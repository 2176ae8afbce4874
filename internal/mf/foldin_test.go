package mf

import (
	"math"
	"testing"

	"clapf/internal/linalg"
	"clapf/internal/mathx"
)

// trainedLikeModel builds a model whose item factors form two clusters so
// fold-in and similarity have signal to find.
func trainedLikeModel(t *testing.T) *Model {
	t.Helper()
	m := MustNew(Config{NumUsers: 4, NumItems: 20, Dim: 4, UseBias: true})
	rng := mathx.NewRNG(71)
	for i := int32(0); i < 20; i++ {
		f := m.ItemFactors(i)
		base := []float64{1, 0, 0.2, 0}
		if i >= 10 {
			base = []float64{0, 1, 0, 0.2}
		}
		for q := range f {
			f[q] = base[q] + 0.05*rng.NormFloat64()
		}
	}
	return m
}

func TestFoldInRecoversCluster(t *testing.T) {
	m := trainedLikeModel(t)
	// A new user who consumed items from the first cluster must score
	// first-cluster items higher.
	uf, err := FoldInUser(m, []int32{0, 1, 2, 3}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(uf) != m.Dim() {
		t.Fatalf("fold-in vector has length %d", len(uf))
	}
	var inCluster, outCluster mathx.OnlineStats
	for i := int32(4); i < 10; i++ {
		inCluster.Add(m.ScoreFoldIn(uf, i))
	}
	for i := int32(10); i < 20; i++ {
		outCluster.Add(m.ScoreFoldIn(uf, i))
	}
	if inCluster.Mean() <= outCluster.Mean() {
		t.Errorf("fold-in user scores own cluster %.3f <= other cluster %.3f",
			inCluster.Mean(), outCluster.Mean())
	}
}

func TestFoldInFitsObservations(t *testing.T) {
	// With small reg, the folded-in user should score observed items near
	// the target 1 − b_i.
	m := trainedLikeModel(t)
	items := []int32{0, 5, 9}
	uf, err := FoldInUser(m, items, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if s := m.ScoreFoldIn(uf, it); math.Abs(s-1) > 0.5 {
			t.Errorf("observed item %d scores %.3f, want ≈ 1", it, s)
		}
	}
}

// A history with duplicated ids must solve the same normal equations as
// its deduped form: a repeated id may not double its rank-one update. The
// round-trip is exact (identical accumulation order), so compare bitwise.
func TestFoldInDedupesHistory(t *testing.T) {
	m := trainedLikeModel(t)
	unique := []int32{0, 5, 9}
	withDups := []int32{0, 5, 0, 9, 5, 5, 0}
	want, err := FoldInUser(m, unique, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FoldInUser(m, withDups, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for q := range want {
		if got[q] != want[q] {
			t.Fatalf("factor %d: dup history solves to %v, unique to %v", q, got[q], want[q])
		}
	}
	// The equality is not vacuous: actually double-weighting an item (two
	// distinct rank-one updates of the same factors, as the old code did
	// for a repeated id) moves the solution.
	a := linalg.NewMatrix(m.Dim())
	b := make([]float64, m.Dim())
	for _, it := range []int32{0, 0, 5, 9} { // item 0 weighted twice
		vf := m.ItemFactors(it)
		a.SymRankOne(1, vf)
		mathx.AXPY(1-m.Bias(it), vf, b)
	}
	a.AddDiagonal(0.1)
	doubled, err := linalg.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for q := range want {
		if doubled[q] != want[q] {
			same = false
		}
	}
	if same {
		t.Fatal("sanity: double-weighting an item did not move the solve; the dedupe test proves nothing")
	}
}

func TestFoldInErrors(t *testing.T) {
	m := trainedLikeModel(t)
	if _, err := FoldInUser(m, nil, 0.1); err == nil {
		t.Error("empty history accepted")
	}
	if _, err := FoldInUser(m, []int32{0}, 0); err == nil {
		t.Error("zero reg accepted")
	}
	if _, err := FoldInUser(m, []int32{99}, 0.1); err == nil {
		t.Error("out-of-range item accepted")
	}
}

func TestScoreAllFoldInMatches(t *testing.T) {
	m := trainedLikeModel(t)
	uf, err := FoldInUser(m, []int32{11, 12}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, m.NumItems())
	m.ScoreRangeFoldIn(uf, 0, m.NumItems(), out)
	for i := int32(0); int(i) < m.NumItems(); i++ {
		if out[i] != m.ScoreFoldIn(uf, i) {
			t.Fatalf("ScoreRangeFoldIn[%d] mismatch", i)
		}
	}
}

func TestSimilarItemsFindsCluster(t *testing.T) {
	m := trainedLikeModel(t)
	sims, err := SimilarItems(m, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != 5 {
		t.Fatalf("got %d similar items", len(sims))
	}
	for _, e := range sims {
		if e.Item == 0 {
			t.Error("anchor item returned as its own neighbor")
		}
		if e.Item >= 10 {
			t.Errorf("cross-cluster item %d among top neighbors", e.Item)
		}
		if e.Score < 0.8 {
			t.Errorf("in-cluster cosine %.3f suspiciously low", e.Score)
		}
	}
}

func TestSimilarItemsZeroNormSinks(t *testing.T) {
	m := MustNew(Config{NumUsers: 1, NumItems: 3, Dim: 2})
	copy(m.ItemFactors(0), []float64{1, 0})
	copy(m.ItemFactors(1), []float64{1, 0.1})
	// Item 2 stays all-zero.
	sims, err := SimilarItems(m, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sims[0].Item != 1 {
		t.Errorf("nearest = %d, want 1", sims[0].Item)
	}
	if sims[1].Item != 2 || sims[1].Score != -1 {
		t.Errorf("zero-norm item should sink with score -1, got %+v", sims[1])
	}
}

func TestSimilarItemsErrors(t *testing.T) {
	m := trainedLikeModel(t)
	if _, err := SimilarItems(m, -1, 3); err == nil {
		t.Error("negative item accepted")
	}
	if _, err := SimilarItems(m, 0, 0); err == nil {
		t.Error("k = 0 accepted")
	}
}
