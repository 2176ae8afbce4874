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

// TestOfferRunAndOfferIDsMatchOffer holds the two tile loops to the loop
// they replace: `if !excluded { sel.Offer(id, score) }` per item, in the
// same order. Both jump from survivor to survivor on
// mathx.FirstNotBelow, so what is checked is that nothing Offer would
// have acted on is jumped over — entries and dropped count — around the
// places a jump could go wrong: non-finite scores while the floor is still
// -Inf and after it is finite, ties with the floor at a larger id (must
// lose) and, ids descending, at a smaller one (must win), an excluded id
// right before or after a survivor and on either side of the predicate's
// four-score groups, every id excluded, k = 1 and k > len. Then random
// tiles of every length from 0 to 40, and 512.
func TestOfferRunAndOfferIDsMatchOffer(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	compare := func(label string, k int, ex []int32, ids []int32, scores []float64) {
		t.Helper()
		ref := NewSelector(k, nil)
		for j, id := range ids {
			if _, excluded := slices.BinarySearch(ex, id); !excluded {
				ref.Offer(id, scores[j])
			}
		}
		want, wantDropped := ref.Finish()
		check := func(path string, sel Selector) {
			t.Helper()
			got, dropped := sel.Finish()
			if dropped != wantDropped || !slices.Equal(got, want) {
				t.Fatalf("%s, %s, k=%d: %v, %d dropped; the Offer loop %v, %d (ids %v, scores %v, exclude %v)",
					label, path, k, got, dropped, want, wantDropped, ids, scores, ex)
			}
		}
		for _, tile := range []int{len(ids) + 1, 4, 5} {
			sel := NewSelector(k, ex)
			for lo := 0; lo < len(ids); lo += tile {
				hi := min(lo+tile, len(ids))
				sel.OfferIDs(ids[lo:hi], scores[lo:hi])
			}
			check("OfferIDs", sel)
			if !slices.IsSorted(ids) {
				continue // OfferRun's merge pointer needs ascending runs
			}
			sel = NewSelector(k, ex)
			for lo := 0; lo < len(ids); lo += tile {
				sel.OfferRun(ids[lo], scores[lo:min(lo+tile, len(ids))])
			}
			check("OfferRun", sel)
		}
	}
	dense := func(first int32, n int) []int32 {
		ids := make([]int32, n)
		for j := range ids {
			ids[j] = first + int32(j)
		}
		return ids
	}
	both := func(label string, ex []int32, scores []float64) {
		t.Helper()
		up := dense(0, len(scores))
		down, rev := slices.Clone(up), slices.Clone(scores)
		slices.Reverse(down)
		slices.Reverse(rev)
		for _, k := range []int{1, 2, 3, len(scores) + 3} {
			compare(label, k, ex, up, scores)
			compare(label+", ids descending", k, ex, down, rev)
		}
	}

	both("non-finite before the heap fills", nil, []float64{nan, -inf, inf, 1, 2, 3, 0, 0.5, 4, 0, 0, 0, 0})
	both("non-finite after the heap fills", nil, []float64{5, 4, 6, 1, nan, 1, -inf, 1, 1, inf, 1, 1, -inf})
	both("non-finite on an excluded id", []int32{4, 9}, []float64{5, 4, 6, 1, nan, 1, -inf, 1, 1, inf, 1, 1})
	both("ties with the floor", nil, []float64{3, 2, 2, 1, 2, 1, 1, 2, 3, 2, 2, 3, 3})
	survivors := []float64{1, 0, 0, 5, 6, 7, 0, 0, 8, 0, 0, 0, 9}
	all := dense(0, len(survivors))
	both("no exclusion", nil, survivors)
	both("every id excluded", all, survivors)
	both("excluded 3 4 5", []int32{3, 4, 5}, survivors)
	for i := range all {
		both("one excluded id", all[i:i+1], survivors)
		both("all but one excluded", slices.Delete(slices.Clone(all), i, i+1), survivors)
		if i > 0 {
			both("two excluded ids", all[i-1:i+1], survivors)
		}
	}
	compare("empty tile", 3, []int32{1}, nil, nil)

	rng := mathx.NewRNG(43)
	special := []float64{nan, inf, -inf}
	for trial := 0; trial < 2000; trial++ {
		n := trial % 42
		if n == 41 {
			n = 512
		}
		first := int32(rng.Intn(5))
		ids, scores := dense(first, n), make([]float64, n)
		for j := range scores {
			scores[j] = float64(rng.Intn(8)) / 2
			if rng.Intn(11) == 0 {
				scores[j] = special[rng.Intn(len(special))]
			}
		}
		var ex []int32
		for id := int32(0); id < first+int32(n)+2; id++ { // some outside the tile
			if rng.Intn(4) == 0 {
				ex = append(ex, id)
			}
		}
		k := []int{1, 2, 10, n + 1}[rng.Intn(4)]
		compare("random", k, ex, ids, scores)
		rng.Shuffle(n, func(a, b int) { ids[a], ids[b], scores[a], scores[b] = ids[b], ids[a], scores[b], scores[a] })
		compare("random, ids shuffled", k, ex, ids, scores)
	}
}
