package eval

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/score"
)

// oracleScorer scores exactly the test positives highest.
type oracleScorer struct{ test *dataset.Dataset }

func (o oracleScorer) ScoreAll(u int32, out []float64) {
	for i := range out {
		if o.test.IsPositive(u, int32(i)) {
			out[i] = 1
		} else {
			out[i] = 0
		}
	}
}

// randomScorer returns seeded pseudo-random scores, fresh per call.
type randomScorer struct{ seed uint64 }

func (r randomScorer) ScoreAll(u int32, out []float64) {
	rng := mathx.NewRNG(r.seed + uint64(u))
	for i := range out {
		out[i] = rng.Float64()
	}
}

func buildSplit(t *testing.T) (train, test *dataset.Dataset) {
	t.Helper()
	var pairs []dataset.Interaction
	rng := mathx.NewRNG(77)
	const nu, ni = 40, 60
	for u := int32(0); u < nu; u++ {
		for c := 0; c < 12; c++ {
			pairs = append(pairs, dataset.Interaction{User: u, Item: int32(rng.Intn(ni))})
		}
	}
	d, err := dataset.FromInteractions("ev", nu, ni, pairs)
	if err != nil {
		t.Fatal(err)
	}
	train, test = dataset.Split(d, mathx.NewRNG(5), 0.5)
	return
}

func TestEvaluateOraclePerfect(t *testing.T) {
	train, test := buildSplit(t)
	res := Evaluate(oracleScorer{test}, train, test, Options{Ks: []int{5}})
	if res.Users == 0 {
		t.Fatal("no users evaluated")
	}
	if !mathx.AlmostEqual(res.MAP, 1, 1e-9) {
		t.Errorf("oracle MAP = %v, want 1", res.MAP)
	}
	if !mathx.AlmostEqual(res.MRR, 1, 1e-9) {
		t.Errorf("oracle MRR = %v, want 1", res.MRR)
	}
	if !mathx.AlmostEqual(res.AUC, 1, 1e-9) {
		t.Errorf("oracle AUC = %v, want 1", res.AUC)
	}
	m := res.MustAt(5)
	if m.NDCG < 0.999 {
		t.Errorf("oracle NDCG@5 = %v, want 1", m.NDCG)
	}
	if m.OneCall < 0.999 {
		t.Errorf("oracle 1-call@5 = %v, want 1", m.OneCall)
	}
}

func TestEvaluateRandomNearHalfAUC(t *testing.T) {
	train, test := buildSplit(t)
	res := Evaluate(randomScorer{seed: 3}, train, test, Options{Ks: []int{5}})
	if res.AUC < 0.4 || res.AUC > 0.6 {
		t.Errorf("random AUC = %v, want ≈ 0.5", res.AUC)
	}
	if res.MAP >= 0.5 {
		t.Errorf("random MAP = %v, suspiciously high", res.MAP)
	}
}

func TestEvaluateOracleBeatsRandom(t *testing.T) {
	train, test := buildSplit(t)
	oracle := Evaluate(oracleScorer{test}, train, test, Options{Ks: []int{5}})
	random := Evaluate(randomScorer{seed: 9}, train, test, Options{Ks: []int{5}})
	if oracle.MustAt(5).Recall <= random.MustAt(5).Recall {
		t.Error("oracle should beat random on Recall@5")
	}
	if oracle.MAP <= random.MAP {
		t.Error("oracle should beat random on MAP")
	}
}

func TestEvaluateExcludesTrainingPositives(t *testing.T) {
	// A scorer that puts training positives on top would score zero if they
	// were not excluded; with exclusion the test positives surface.
	train, err := dataset.FromInteractions("t", 1, 6, []dataset.Interaction{{User: 0, Item: 0}, {User: 0, Item: 1}})
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.FromInteractions("t", 1, 6, []dataset.Interaction{{User: 0, Item: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Scores: train positives highest, then the test positive.
	s := scorerFunc(func(u int32, out []float64) {
		copy(out, []float64{10, 9, 8, 1, 1, 1})
	})
	res := Evaluate(s, train, test, Options{Ks: []int{1}})
	if got := res.MustAt(1).Prec; !mathx.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("Prec@1 = %v, want 1 — training items must not occupy slots", got)
	}
	if !mathx.AlmostEqual(res.MRR, 1, 1e-12) {
		t.Errorf("MRR = %v, want 1", res.MRR)
	}
}

type scorerFunc func(u int32, out []float64)

func (f scorerFunc) ScoreAll(u int32, out []float64) { f(u, out) }

func TestEvaluateDefaultKs(t *testing.T) {
	train, test := buildSplit(t)
	res := Evaluate(oracleScorer{test}, train, test, Options{})
	if len(res.AtK) != len(DefaultKs) {
		t.Fatalf("got %d cutoffs, want %d", len(res.AtK), len(DefaultKs))
	}
	for i, k := range DefaultKs {
		if res.AtK[i].K != k {
			t.Errorf("cutoff[%d] = %d, want %d", i, res.AtK[i].K, k)
		}
	}
	if _, err := res.At(999); err == nil {
		t.Error("At(999) should error")
	}
}

func TestEvaluateMaxUsersSampling(t *testing.T) {
	train, test := buildSplit(t)
	opts := Options{Ks: []int{5}, MaxUsers: 10, RNG: mathx.NewRNG(4)}
	res := Evaluate(oracleScorer{test}, train, test, opts)
	if res.Users > 10 {
		t.Errorf("evaluated %d users, cap was 10", res.Users)
	}
	// Deterministic under the same seed.
	res2 := Evaluate(oracleScorer{test}, train, test, Options{Ks: []int{5}, MaxUsers: 10, RNG: mathx.NewRNG(4)})
	if res.MustAt(5).Recall != res2.MustAt(5).Recall {
		t.Error("sampled evaluation not deterministic under same seed")
	}
}

func TestEvaluateEmptyTest(t *testing.T) {
	train, _ := buildSplit(t)
	empty, err := dataset.FromInteractions("e", train.NumUsers(), train.NumItems(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate(oracleScorer{empty}, train, empty, Options{Ks: []int{5}})
	if res.Users != 0 || res.MAP != 0 {
		t.Errorf("empty test set: %+v", res)
	}
}

func TestEvaluateRecallMonotoneInK(t *testing.T) {
	train, test := buildSplit(t)
	res := Evaluate(randomScorer{seed: 1}, train, test, Options{})
	for i := 1; i < len(res.AtK); i++ {
		if res.AtK[i].Recall+1e-12 < res.AtK[i-1].Recall {
			t.Errorf("Recall not monotone in k: %v", res.AtK)
		}
		if res.AtK[i].OneCall+1e-12 < res.AtK[i-1].OneCall {
			t.Errorf("1-call not monotone in k: %v", res.AtK)
		}
	}
}

func TestEvaluateTiming(t *testing.T) {
	train, test := buildSplit(t)
	res := Evaluate(oracleScorer{test}, train, test, Options{Ks: []int{5}})
	tm := res.Timing
	if tm.Total <= 0 {
		t.Fatalf("total = %v, want > 0", tm.Total)
	}
	if tm.Score <= 0 || tm.Rank <= 0 || tm.Metrics <= 0 {
		t.Errorf("phases not all measured: %+v", tm)
	}
	if sum := tm.Score + tm.Rank + tm.Metrics; sum > tm.Total {
		t.Errorf("phases (%v) exceed total (%v)", sum, tm.Total)
	}
	if s := tm.String(); !strings.Contains(s, "score") || !strings.Contains(s, "rank") || !strings.Contains(s, "metrics") {
		t.Errorf("Timing.String() = %q", s)
	}
}

// TestEvaluateParallelBitIdentical is the determinism contract for
// Options.Workers: per-user rows are reduced sequentially in user order,
// so every worker count must produce the exact same Result — not merely
// close, but identical down to the last float bit (Timing excluded; it
// genuinely differs) — and the same BucketResult.
func TestEvaluateParallelBitIdentical(t *testing.T) {
	train, test := buildSplit(t)
	for _, scorer := range []Scorer{oracleScorer{test}, randomScorer{seed: 31}} {
		base := Evaluate(scorer, train, test, Options{})
		base.Timing = Timing{}
		baseBuckets, err := BucketEvaluate(scorer, train, test, 5, 0.3, 0.4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 4, 7, 64} {
			got := Evaluate(scorer, train, test, Options{Workers: workers})
			got.Timing = Timing{}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("workers=%d diverges from serial:\n got  %+v\n want %+v",
					workers, got, base)
			}
			buckets, err := BucketEvaluate(scorer, train, test, 5, 0.3, 0.4, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if buckets != baseBuckets {
				t.Fatalf("BucketEvaluate workers=%d diverges from serial:\n got  %+v\n want %+v",
					workers, buckets, baseBuckets)
			}
		}
	}
}

// TestEvaluateParallelWithSampling checks that the MaxUsers cap and the
// worker fan-out compose: the sampled user set is chosen before the
// fan-out, so results stay worker-count independent.
func TestEvaluateParallelWithSampling(t *testing.T) {
	train, test := buildSplit(t)
	mk := func(workers int) Result {
		r := Evaluate(oracleScorer{test}, train, test,
			Options{Ks: []int{5}, MaxUsers: 10, RNG: mathx.NewRNG(4), Workers: workers})
		r.Timing = Timing{}
		return r
	}
	if a, b := mk(1), mk(5); !reflect.DeepEqual(a, b) {
		t.Errorf("sampled eval differs across worker counts:\n %+v\n %+v", a, b)
	}
}

// TestNonFiniteScoresRankOneWay pins the one rule for non-finite scores:
// ±Inf order as numbers and NaN ranks below every number, NaNs by id, in
// Evaluate, PerUserAtK and BucketEvaluate alike; −0 ties +0.
func TestNonFiniteScoresRankOneWay(t *testing.T) {
	train, err := dataset.FromInteractions("t", 1, 8, []dataset.Interaction{{User: 0, Item: 6}})
	if err != nil {
		t.Fatal(err)
	}
	test, err := dataset.FromInteractions("t", 1, 8, []dataset.Interaction{
		{User: 0, Item: 0}, {User: 0, Item: 1}, {User: 0, Item: 2}, {User: 0, Item: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	s := scorerFunc(func(u int32, out []float64) {
		copy(out, []float64{nan, inf, -inf, 1, nan, negZero, 5, 0})
	})
	// Candidates (all but 6) rank 1 (+Inf), 3, 5 (−0), 7 (+0), 2 (−Inf),
	// 0 (NaN), 4 (NaN): the positives sit at positions 0, 2, 4 and 5 of 7.
	want := NewListEval([]int{0, 2, 4, 5}, 4, 7)
	res := Evaluate(s, train, test, Options{Ks: []int{1, 4, 5}})
	for _, k := range []int{1, 4, 5} {
		if got := res.MustAt(k); got != want.AtK(k) {
			t.Errorf("@%d = %+v, want %+v", k, got, want.AtK(k))
		}
	}
	if res.MAP != want.AP() || res.MRR != 1 || res.AUC != 7.0/12 {
		t.Errorf("MAP %v MRR %v AUC %v, want %v 1 7/12", res.MAP, res.MRR, res.AUC, want.AP())
	}
	if prec, _ := PerUserAtK(s, train, test, 4); len(prec) != 1 || prec[0] != 0.5 {
		t.Errorf("PerUserAtK Prec@4 = %v, want [0.5]", prec)
	}
	for k, wantRecovered := range map[int]int{1: 1, 4: 2, 5: 3} {
		br, err := BucketEvaluate(s, train, test, k, 0.3, 0.4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := br.Recovered[Head] + br.Recovered[Mid] + br.Recovered[Tail]; got != wantRecovered {
			t.Errorf("BucketEvaluate k=%d recovered %d positives, want %d", k, got, wantRecovered)
		}
	}
}

// BenchmarkEvaluate times one Evaluate over 500 users on one worker, at
// ML-1M's and ML-20M's item counts, for a random dim-20 model scored
// through its own ScoreAll and through its score.Engine. Each user has 80
// training and 20 test positives. ns/user is the whole call per user;
// score, rank and metrics are Timing's phase shares of Total.
func BenchmarkEvaluate(b *testing.B) {
	const users, dim = 500, 20
	for _, items := range []int{3952, 26744} {
		rng := mathx.NewRNG(uint64(items))
		var trainPairs, testPairs []dataset.Interaction
		for u := int32(0); u < users; u++ {
			seen := make(map[int32]bool, 100)
			for len(seen) < 100 {
				it := int32(rng.Intn(items))
				if seen[it] {
					continue
				}
				seen[it] = true
				if len(seen) <= 80 {
					trainPairs = append(trainPairs, dataset.Interaction{User: u, Item: it})
				} else {
					testPairs = append(testPairs, dataset.Interaction{User: u, Item: it})
				}
			}
		}
		train, err := dataset.FromInteractions("tr", users, items, trainPairs)
		if err != nil {
			b.Fatal(err)
		}
		test, err := dataset.FromInteractions("te", users, items, testPairs)
		if err != nil {
			b.Fatal(err)
		}
		m := mf.MustNew(mf.Config{NumUsers: users, NumItems: items, Dim: dim, UseBias: true, InitStd: 0.1})
		m.InitGaussian(mathx.NewRNG(9), 0.1)
		for _, c := range []struct {
			name string
			s    Scorer
		}{{"model", m}, {"engine", score.NewEngine(m)}} {
			b.Run(fmt.Sprintf("items=%d/%s", items, c.name), func(b *testing.B) {
				var tm Timing
				for i := 0; i < b.N; i++ {
					t := Evaluate(c.s, train, test, Options{Workers: 1}).Timing
					tm.Score += t.Score
					tm.Rank += t.Rank
					tm.Metrics += t.Metrics
					tm.Total += t.Total
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*users), "ns/user")
				b.ReportMetric(tm.Score.Seconds()/tm.Total.Seconds(), "score")
				b.ReportMetric(tm.Rank.Seconds()/tm.Total.Seconds(), "rank")
				b.ReportMetric(tm.Metrics.Seconds()/tm.Total.Seconds(), "metrics")
			})
		}
	}
}
