package eval

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/score"
)

// The reference the evaluator is held to: every candidate in one list,
// sort.SliceStable by score descending then id ascending, one relevance
// flag per position, and the metrics as walks down the flags. ranker.place
// and ListEval must give this Result bit for bit on finite scores.

// flagList is one user's full ranking: the candidates in rank order and
// whether each is a test positive.
type flagList struct {
	items  []int32
	ranked []bool
	numRel int
}

func fullSortList(scores []float64, train, test *dataset.Dataset, u int32) flagList {
	var cands []int32
	for i := int32(0); i < int32(len(scores)); i++ {
		if !train.IsPositive(u, i) {
			cands = append(cands, i)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		ia, ib := cands[a], cands[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return ia < ib
	})
	flags := make([]bool, len(cands))
	for p, it := range cands {
		flags[p] = test.IsPositive(u, it)
	}
	return flagList{items: cands, ranked: flags, numRel: len(test.Positives(u))}
}

func (l flagList) atK(k int) KMetrics {
	if k <= 0 {
		return KMetrics{K: k}
	}
	lim := k
	if lim > len(l.ranked) {
		lim = len(l.ranked)
	}
	hits := 0
	dcg := 0.0
	for p := 0; p < lim; p++ {
		if l.ranked[p] {
			hits++
			dcg += 1 / math.Log2(float64(p)+2)
		}
	}
	m := KMetrics{K: k}
	m.Prec = float64(hits) / float64(k)
	if l.numRel > 0 {
		m.Recall = float64(hits) / float64(l.numRel)
	}
	if m.Prec+m.Recall > 0 {
		m.F1 = 2 * m.Prec * m.Recall / (m.Prec + m.Recall)
	}
	if hits > 0 {
		m.OneCall = 1
	}
	ideal := l.numRel
	if ideal > k {
		ideal = k
	}
	var idcg float64
	for p := 0; p < ideal; p++ {
		idcg += 1 / math.Log2(float64(p)+2)
	}
	if idcg > 0 {
		m.NDCG = dcg / idcg
	}
	return m
}

func (l flagList) ap() float64 {
	if l.numRel == 0 {
		return 0
	}
	hits := 0
	var sum float64
	for p, rel := range l.ranked {
		if rel {
			hits++
			sum += float64(hits) / float64(p+1)
		}
	}
	return sum / float64(l.numRel)
}

func (l flagList) rr() float64 {
	for p, rel := range l.ranked {
		if rel {
			return 1 / float64(p+1)
		}
	}
	return 0
}

func (l flagList) auc() float64 {
	numPos := 0
	for _, rel := range l.ranked {
		if rel {
			numPos++
		}
	}
	numNeg := len(l.ranked) - numPos
	if numPos == 0 || numNeg == 0 {
		return 0
	}
	var correct float64
	seen := 0
	for p, rel := range l.ranked {
		if rel {
			correct += float64(numNeg - (p - seen))
			seen++
		}
	}
	return correct / (float64(numPos) * float64(numNeg))
}

// fullSortLists ranks every user Evaluate would evaluate under opts.
func fullSortLists(s Scorer, train, test *dataset.Dataset, opts Options) []flagList {
	scores := make([]float64, train.NumItems())
	var lists []flagList
	for _, u := range testUsers(test, opts) {
		s.ScoreAll(u, scores)
		lists = append(lists, fullSortList(scores, train, test, u))
	}
	return lists
}

// fullSortEvaluate is Evaluate over the reference ranking, Timing zero.
func fullSortEvaluate(s Scorer, train, test *dataset.Dataset, opts Options) Result {
	ks := opts.Ks
	if len(ks) == 0 {
		ks = DefaultKs
	}
	res := Result{AtK: make([]KMetrics, len(ks))}
	for i, k := range ks {
		res.AtK[i].K = k
	}
	lists := fullSortLists(s, train, test, opts)
	for _, l := range lists {
		for j, k := range ks {
			m := l.atK(k)
			res.AtK[j].Prec += m.Prec
			res.AtK[j].Recall += m.Recall
			res.AtK[j].F1 += m.F1
			res.AtK[j].OneCall += m.OneCall
			res.AtK[j].NDCG += m.NDCG
		}
		res.MAP += l.ap()
		res.MRR += l.rr()
		res.AUC += l.auc()
	}
	res.Users = len(lists)
	if res.Users == 0 {
		return res
	}
	n := float64(res.Users)
	for j := range res.AtK {
		res.AtK[j].Prec /= n
		res.AtK[j].Recall /= n
		res.AtK[j].F1 /= n
		res.AtK[j].OneCall /= n
		res.AtK[j].NDCG /= n
	}
	res.MAP /= n
	res.MRR /= n
	res.AUC /= n
	return res
}

// fullSortBuckets is BucketEvaluate over the reference ranking: a test
// positive is recovered when it is among the first k candidates.
func fullSortBuckets(s Scorer, train, test *dataset.Dataset, k int, opts Options) BucketResult {
	buckets, err := ItemBuckets(train, 0.3, 0.4)
	if err != nil {
		panic(err)
	}
	res := BucketResult{K: k}
	for _, u := range testUsers(test, opts) {
		for _, it := range test.Positives(u) {
			res.Positives[buckets[it]]++
		}
	}
	for _, l := range fullSortLists(s, train, test, opts) {
		for p := 0; p < k && p < len(l.ranked); p++ {
			if l.ranked[p] {
				res.Recovered[buckets[l.items[p]]]++
			}
		}
	}
	return res
}

// tableScorer serves a fixed users × items score table.
type tableScorer struct {
	scores   []float64
	numItems int
}

func (t tableScorer) ScoreAll(u int32, out []float64) {
	copy(out, t.scores[int(u)*t.numItems:])
}

// randomEvalCase draws a small split and a score table quantised to 2–4
// levels, so ties are everywhere. Train and test are drawn independently,
// so a test positive can also be a training positive; some users hold
// nearly every item in training, so k often exceeds the candidate count;
// and in a third of the cases the test positives score above every other
// item, so the best of them has no candidate above it.
func randomEvalCase(t *testing.T, rng *mathx.RNG) (train, test *dataset.Dataset, s tableScorer) {
	t.Helper()
	numUsers, numItems := 1+rng.Intn(10), 2+rng.Intn(40)
	var trainPairs, testPairs []dataset.Interaction
	for u := int32(0); u < int32(numUsers); u++ {
		pTrain, pTest := 0.95*rng.Float64(), 0.05+0.45*rng.Float64()
		for i := int32(0); i < int32(numItems); i++ {
			if rng.Float64() < pTrain {
				trainPairs = append(trainPairs, dataset.Interaction{User: u, Item: i})
			}
			if rng.Float64() < pTest {
				testPairs = append(testPairs, dataset.Interaction{User: u, Item: i})
			}
		}
	}
	var err error
	if train, err = dataset.FromInteractions("tr", numUsers, numItems, trainPairs); err != nil {
		t.Fatal(err)
	}
	if test, err = dataset.FromInteractions("te", numUsers, numItems, testPairs); err != nil {
		t.Fatal(err)
	}
	levels := 2 + rng.Intn(3)
	positivesOnTop := rng.Intn(3) == 0
	s = tableScorer{scores: make([]float64, numUsers*numItems), numItems: numItems}
	for u := int32(0); u < int32(numUsers); u++ {
		for i := int32(0); i < int32(numItems); i++ {
			v := float64(rng.Intn(levels))
			if positivesOnTop && test.IsPositive(u, i) {
				v = float64(levels)
			}
			s.scores[int(u)*numItems+int(i)] = v
		}
	}
	return train, test, s
}

// TestEvaluateMatchesFullSort holds Evaluate, PerUserAtK and
// BucketEvaluate to the full-sort reference with exact equality, on
// randomised tie-heavy cases and on a model scored directly and through
// its score.Engine.
func TestEvaluateMatchesFullSort(t *testing.T) {
	ks := []int{1, 2, 3, 5, 10, 20, 60}
	check := func(name string, s Scorer, train, test *dataset.Dataset, workers int) {
		t.Helper()
		opts := Options{Ks: ks, Workers: workers}
		got := Evaluate(s, train, test, opts)
		got.Timing = Timing{}
		if want := fullSortEvaluate(s, train, test, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Evaluate (workers=%d) differs from the full sort:\n got  %+v\n want %+v", name, workers, got, want)
		}
		for _, k := range ks {
			prec, ndcg := PerUserAtK(s, train, test, k)
			var wantPrec, wantNDCG []float64
			for _, l := range fullSortLists(s, train, test, Options{}) {
				m := l.atK(k)
				wantPrec = append(wantPrec, m.Prec)
				wantNDCG = append(wantNDCG, m.NDCG)
			}
			if !reflect.DeepEqual(prec, wantPrec) || !reflect.DeepEqual(ndcg, wantNDCG) {
				t.Fatalf("%s: PerUserAtK(%d) differs from the full sort:\n got  %v %v\n want %v %v", name, k, prec, ndcg, wantPrec, wantNDCG)
			}
			br, err := BucketEvaluate(s, train, test, k, 0.3, 0.4, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := fullSortBuckets(s, train, test, k, opts); br != want {
				t.Fatalf("%s: BucketEvaluate(%d) = %+v, full sort %+v", name, k, br, want)
			}
		}
	}

	rng := mathx.NewRNG(2024)
	for c := 0; c < 300; c++ {
		train, test, s := randomEvalCase(t, rng)
		check(fmt.Sprintf("case %d", c), s, train, test, 1+rng.Intn(4))
	}

	// A model, and the same model through score.Engine — an eval.Scorer
	// like any other — held to the model's full-sort reference.
	train, test := buildSplit(t)
	m := mf.MustNew(mf.Config{
		NumUsers: train.NumUsers(), NumItems: train.NumItems(),
		Dim: 6, UseBias: true, InitStd: 0.1,
	})
	m.InitGaussian(mathx.NewRNG(9), 0.1)
	want := fullSortEvaluate(m, train, test, Options{Ks: ks})
	for _, workers := range []int{1, 2, 4, 64} {
		check("model", m, train, test, workers)
		got := Evaluate(score.NewEngine(m), train, test, Options{Ks: ks, Workers: workers})
		got.Timing = Timing{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engine eval (workers=%d) differs from the model's full sort:\n got  %+v\n want %+v", workers, got, want)
		}
	}
}
