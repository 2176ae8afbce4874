package rank

import (
	"math"
	"slices"
	"sort"
	"testing"

	"clapf/internal/mathx"
)

// naiveTopK is the selection written the slow, obvious way — filter, count
// the non-finite, full sort, cut — sharing no code with Selector.
func naiveTopK(scores []float64, k int, excluded map[int32]bool) ([]Entry, int) {
	if k <= 0 {
		return nil, 0
	}
	var es []Entry
	dropped := 0
	for i, sc := range scores {
		switch {
		case excluded[int32(i)]:
		case math.IsNaN(sc) || math.IsInf(sc, 0):
			dropped++
		default:
			es = append(es, Entry{Item: int32(i), Score: sc})
		}
	}
	sort.Slice(es, func(a, b int) bool {
		if es[a].Score != es[b].Score {
			return es[a].Score > es[b].Score
		}
		return es[a].Item < es[b].Item
	})
	if len(es) > k {
		es = es[:k]
	}
	return es, dropped
}

// TestSelectorMatchesNaive drives every way into the selector — the dense
// closure path, the candidate list in shuffled order, OfferRun over tiles
// of several sizes, and OfferIDs over strided ascending runs visited out
// of order the way the IVF scan does — against the naive oracle, on score
// vectors made of few distinct values (so ties sit on the floor) with NaN
// and ±Inf sprinkled in — on excluded ids too, where they must not count
// as dropped — including a -Inf after the heap has filled, which must.
// Every tenth trial excludes every id.
func TestSelectorMatchesNaive(t *testing.T) {
	rng := mathx.NewRNG(41)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(90)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(6)) / 2
			if rng.Intn(9) == 0 {
				scores[i] = special[rng.Intn(len(special))]
			}
		}
		scores[n-1] = math.Inf(-1)
		var ex []int32
		excluded := map[int32]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 || trial%10 == 9 {
				ex = append(ex, int32(i))
				excluded[int32(i)] = true
			}
		}
		if n > 2 && trial%10 != 9 { // the late -Inf is offered; an excluded NaN is not
			ex, excluded[int32(n-1)] = slices.DeleteFunc(ex, func(i int32) bool { return i == int32(n-1) }), false
			if !excluded[0] {
				ex, excluded[0] = slices.Insert(ex, 0, 0), true
			}
			scores[0] = special[trial%len(special)]
		}
		k := rng.Intn(n + 3)
		want, wantDropped := naiveTopK(scores, k, excluded)
		check := func(path string, got []Entry, dropped int) {
			t.Helper()
			if dropped != wantDropped || len(got) != len(want) {
				t.Fatalf("trial %d %s: %d entries, %d dropped; want %d, %d (scores %v, exclude %v, k %d)",
					trial, path, len(got), dropped, len(want), wantDropped, scores, ex, k)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d %s rank %d: %+v, want %+v (scores %v, exclude %v, k %d)",
						trial, path, i, got[i], want[i], scores, ex, k)
				}
			}
		}

		got, dropped := TopKDropped(scores, k, func(i int32) bool { return excluded[i] })
		check("TopKDropped", got, dropped)

		var es []Entry
		for i, sc := range scores {
			if !excluded[int32(i)] {
				es = append(es, Entry{Item: int32(i), Score: sc})
			}
		}
		rng.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
		got, dropped = TopKEntriesDropped(es, k)
		check("TopKEntriesDropped", got, dropped)

		if k == 0 {
			// The wrappers above return before looking; a selector built
			// directly retains nothing but has counted.
			_, wantDropped = naiveTopK(scores, 1, excluded)
		}
		for _, tile := range []int{1, 7, n} {
			sel := NewSelector(k, ex)
			for lo := 0; lo < n; lo += tile {
				sel.OfferRun(int32(lo), scores[lo:min(lo+tile, n)])
			}
			got, dropped = sel.Finish()
			check("OfferRun", got, dropped)
		}

		// Ascending runs of scattered ids, visited out of order: the ids
		// congruent to r modulo stride, highest residue first.
		sel := NewSelector(k, ex)
		stride := 1 + rng.Intn(4)
		for r := stride - 1; r >= 0; r-- {
			var ids []int32
			var run []float64
			for i := r; i < n; i += stride {
				ids, run = append(ids, int32(i)), append(run, scores[i])
			}
			sel.OfferIDs(ids, run)
		}
		got, dropped = sel.Finish()
		check("OfferIDs", got, dropped)
	}
}

// A selector for k = 0 retains nothing but still counts what it drops.
func TestSelectorZeroK(t *testing.T) {
	sel := NewSelector(0, nil)
	sel.Offer(1, 2.5)
	sel.Offer(2, math.NaN())
	if got, dropped := sel.Finish(); len(got) != 0 || dropped != 1 {
		t.Errorf("k=0 selector: %d entries, %d dropped; want 0, 1", len(got), dropped)
	}
}
