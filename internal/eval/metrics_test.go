package eval

import (
	"testing"
	"testing/quick"

	"clapf/internal/mathx"
)

// listFrom builds a ListEval for a ranked candidate list where relevant
// items are the given set: the positions of the relevant items in ranked.
func listFrom(ranked []int32, relevant []int32) ListEval {
	rel := make(map[int32]bool, len(relevant))
	for _, r := range relevant {
		rel[r] = true
	}
	var pos []int
	for p, it := range ranked {
		if rel[it] {
			pos = append(pos, p)
		}
	}
	return NewListEval(pos, len(relevant), len(ranked))
}

func TestAtKHandExample(t *testing.T) {
	// Ranked: [5 2 8 1 9]; relevant: {2, 9, 7} (7 never appears).
	le := listFrom([]int32{5, 2, 8, 1, 9}, []int32{2, 9, 7})
	m := le.AtK(3)
	if !mathx.AlmostEqual(m.Prec, 1.0/3, 1e-12) {
		t.Errorf("Prec@3 = %v, want 1/3", m.Prec)
	}
	if !mathx.AlmostEqual(m.Recall, 1.0/3, 1e-12) {
		t.Errorf("Recall@3 = %v, want 1/3", m.Recall)
	}
	if !mathx.AlmostEqual(m.F1, 1.0/3, 1e-12) {
		t.Errorf("F1@3 = %v, want 1/3", m.F1)
	}
	if m.OneCall != 1 {
		t.Errorf("1-call@3 = %v, want 1", m.OneCall)
	}

	m5 := le.AtK(5)
	if !mathx.AlmostEqual(m5.Prec, 2.0/5, 1e-12) {
		t.Errorf("Prec@5 = %v, want 0.4", m5.Prec)
	}
	if !mathx.AlmostEqual(m5.Recall, 2.0/3, 1e-12) {
		t.Errorf("Recall@5 = %v, want 2/3", m5.Recall)
	}
}

func TestAtKNoHits(t *testing.T) {
	le := listFrom([]int32{1, 2, 3}, []int32{9})
	m := le.AtK(3)
	if m.Prec != 0 || m.Recall != 0 || m.F1 != 0 || m.OneCall != 0 || m.NDCG != 0 {
		t.Errorf("expected all-zero metrics, got %+v", m)
	}
}

func TestAtKPerfectRanking(t *testing.T) {
	// All 3 relevant items at the top: NDCG@5 = 1, Recall@5 = 1.
	le := listFrom([]int32{7, 8, 9, 1, 2}, []int32{7, 8, 9})
	m := le.AtK(5)
	if !mathx.AlmostEqual(m.NDCG, 1, 1e-12) {
		t.Errorf("NDCG@5 = %v, want 1 for perfect ranking", m.NDCG)
	}
	if !mathx.AlmostEqual(m.Recall, 1, 1e-12) {
		t.Errorf("Recall@5 = %v, want 1", m.Recall)
	}
	if !mathx.AlmostEqual(m.Prec, 3.0/5, 1e-12) {
		t.Errorf("Prec@5 = %v, want 0.6", m.Prec)
	}
}

func TestNDCGWorseWhenRelevantLower(t *testing.T) {
	top := listFrom([]int32{1, 2, 3, 4, 5}, []int32{1})
	bottom := listFrom([]int32{2, 3, 4, 5, 1}, []int32{1})
	if top.AtK(5).NDCG <= bottom.AtK(5).NDCG {
		t.Errorf("NDCG should prefer relevant item at top: %v vs %v",
			top.AtK(5).NDCG, bottom.AtK(5).NDCG)
	}
}

func TestAtKZeroOrNegativeK(t *testing.T) {
	le := listFrom([]int32{1}, []int32{1})
	if m := le.AtK(0); m.Prec != 0 || m.NDCG != 0 {
		t.Errorf("AtK(0) = %+v, want zeros", m)
	}
	if m := le.AtK(-3); m.Prec != 0 {
		t.Errorf("AtK(-3) nonzero")
	}
}

func TestAtKBeyondListLength(t *testing.T) {
	// k larger than the candidate list: hits are capped by the list but
	// precision divides by k.
	le := listFrom([]int32{1, 2}, []int32{1, 2})
	m := le.AtK(4)
	if !mathx.AlmostEqual(m.Prec, 0.5, 1e-12) {
		t.Errorf("Prec@4 = %v, want 0.5", m.Prec)
	}
	if !mathx.AlmostEqual(m.Recall, 1, 1e-12) {
		t.Errorf("Recall@4 = %v, want 1", m.Recall)
	}
}

func TestAPHandExample(t *testing.T) {
	// Ranked: positions 1..5, relevant at positions 1, 3, 5 (ids 10,30,50).
	le := listFrom([]int32{10, 20, 30, 40, 50}, []int32{10, 30, 50})
	// AP = (1/1 + 2/3 + 3/5) / 3.
	want := (1.0 + 2.0/3 + 3.0/5) / 3
	if got := le.AP(); !mathx.AlmostEqual(got, want, 1e-12) {
		t.Errorf("AP = %v, want %v", got, want)
	}
}

func TestAPPerfectIsOne(t *testing.T) {
	le := listFrom([]int32{1, 2, 3, 9, 8}, []int32{1, 2, 3})
	if got := le.AP(); !mathx.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("AP = %v, want 1", got)
	}
}

func TestAPMissingRelevantPenalized(t *testing.T) {
	// One of two relevant items is absent from the candidate list: the
	// denominator still counts it.
	le := listFrom([]int32{1, 5, 6}, []int32{1, 99})
	if got := le.AP(); !mathx.AlmostEqual(got, 0.5, 1e-12) {
		t.Errorf("AP = %v, want 0.5", got)
	}
}

func TestAPNoRelevant(t *testing.T) {
	le := listFrom([]int32{1, 2}, nil)
	if got := le.AP(); got != 0 {
		t.Errorf("AP with no relevant = %v, want 0", got)
	}
}

func TestRR(t *testing.T) {
	cases := []struct {
		ranked   []int32
		relevant []int32
		want     float64
	}{
		{[]int32{9, 1, 2}, []int32{1}, 0.5},
		{[]int32{1, 2, 3}, []int32{1}, 1},
		{[]int32{5, 6, 7, 1}, []int32{1, 7}, 1.0 / 3},
		{[]int32{5, 6}, []int32{1}, 0},
	}
	for _, c := range cases {
		if got := listFrom(c.ranked, c.relevant).RR(); !mathx.AlmostEqual(got, c.want, 1e-12) {
			t.Errorf("RR(%v rel %v) = %v, want %v", c.ranked, c.relevant, got, c.want)
		}
	}
}

func TestAUCHandExample(t *testing.T) {
	// Ranked [P N P N]: pairs (P1,N1) ok, (P1,N2) ok, (P2,N1) wrong,
	// (P2,N2) ok → 3/4.
	le := listFrom([]int32{1, 8, 2, 9}, []int32{1, 2})
	if got := le.AUC(); !mathx.AlmostEqual(got, 0.75, 1e-12) {
		t.Errorf("AUC = %v, want 0.75", got)
	}
}

func TestAUCExtremes(t *testing.T) {
	perfect := listFrom([]int32{1, 2, 8, 9}, []int32{1, 2})
	if got := perfect.AUC(); got != 1 {
		t.Errorf("perfect AUC = %v", got)
	}
	worst := listFrom([]int32{8, 9, 1, 2}, []int32{1, 2})
	if got := worst.AUC(); got != 0 {
		t.Errorf("worst AUC = %v", got)
	}
	allRel := listFrom([]int32{1, 2}, []int32{1, 2})
	if got := allRel.AUC(); got != 0 {
		t.Errorf("degenerate AUC = %v, want 0", got)
	}
}

func TestAUCMatchesBruteForce(t *testing.T) {
	rng := mathx.NewRNG(1)
	f := func(pattern uint32, n uint8) bool {
		length := int(n%12) + 2
		ranked := make([]int32, length)
		var relevant []int32
		for i := range ranked {
			ranked[i] = int32(i)
			if pattern>>uint(i)&1 == 1 {
				relevant = append(relevant, int32(i))
			}
		}
		_ = rng
		le := listFrom(ranked, relevant)

		// Brute force over all (pos, neg) pairs.
		rel := make(map[int32]bool)
		for _, r := range relevant {
			rel[r] = true
		}
		var correct, total float64
		for pi, p := range ranked {
			if !rel[p] {
				continue
			}
			for ni, q := range ranked {
				if rel[q] {
					continue
				}
				total++
				if pi < ni {
					correct++
				}
			}
		}
		want := 0.0
		if total > 0 {
			want = correct / total
		}
		return mathx.AlmostEqual(le.AUC(), want, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMetricsBounded(t *testing.T) {
	// All metrics live in [0, 1] for arbitrary relevance patterns.
	f := func(pattern uint32, n uint8, k uint8) bool {
		length := int(n%20) + 1
		kk := int(k%25) + 1
		ranked := make([]int32, length)
		var relevant []int32
		for i := range ranked {
			ranked[i] = int32(i)
			if pattern>>uint(i%32)&1 == 1 {
				relevant = append(relevant, int32(i))
			}
		}
		le := listFrom(ranked, relevant)
		m := le.AtK(kk)
		in01 := func(x float64) bool { return x >= 0 && x <= 1+1e-12 }
		return in01(m.Prec) && in01(m.Recall) && in01(m.F1) &&
			in01(m.OneCall) && in01(m.NDCG) && in01(le.AP()) &&
			in01(le.RR()) && in01(le.AUC())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
