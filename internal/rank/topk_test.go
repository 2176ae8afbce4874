package rank

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"clapf/internal/mathx"
)

func TestTopKBasic(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.7, 0.3}
	got := TopK(scores, 3, nil)
	want := []int32{1, 3, 2}
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, e := range got {
		if e.Item != want[i] {
			t.Errorf("TopK[%d] = %d, want %d", i, e.Item, want[i])
		}
		if e.Score != scores[e.Item] {
			t.Errorf("TopK[%d] score = %v", i, e.Score)
		}
	}
}

func TestTopKExclude(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7}
	got := TopK(scores, 2, func(i int32) bool { return i == 0 })
	if len(got) != 2 || got[0].Item != 1 || got[1].Item != 2 {
		t.Errorf("TopK with exclusion = %v", got)
	}
}

func TestTopKSmallerThanK(t *testing.T) {
	got := TopK([]float64{0.5, 0.2}, 10, nil)
	if len(got) != 2 {
		t.Errorf("len = %d, want all 2 items", len(got))
	}
	if TopK(nil, 3, nil) != nil && len(TopK(nil, 3, nil)) != 0 {
		t.Error("empty scores should give empty result")
	}
	if got := TopK([]float64{1}, 0, nil); len(got) != 0 {
		t.Error("k=0 should give empty result")
	}
}

func TestTopKTiesDeterministic(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	got := TopK(scores, 2, nil)
	if got[0].Item != 0 || got[1].Item != 1 {
		t.Errorf("ties should prefer small ids, got %v", got)
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	rng := mathx.NewRNG(1)
	f := func(n uint8, k uint8) bool {
		m := int(n%200) + 1
		kk := int(k%20) + 1
		scores := make([]float64, m)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		got := TopK(scores, kk, nil)
		ref := Argsort(scores)
		if kk > m {
			kk = m
		}
		if len(got) != kk {
			return false
		}
		for i := 0; i < kk; i++ {
			if got[i].Item != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TopK must survive models with non-finite parameters: NaN breaks the
// heap's strict weak ordering and ±Inf is never a real ranking signal, so
// both are dropped and counted rather than returned.
func TestTopKNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name        string
		scores      []float64
		k           int
		exclude     func(int32) bool
		wantItems   []int32
		wantDropped int
	}{
		{
			name:        "nan-in-the-middle",
			scores:      []float64{0.1, nan, 0.9, 0.5},
			k:           3,
			wantItems:   []int32{2, 3, 0},
			wantDropped: 1,
		},
		{
			name:        "nan-first-would-poison-heap-seed",
			scores:      []float64{nan, 0.2, 0.8},
			k:           2,
			wantItems:   []int32{2, 1},
			wantDropped: 1,
		},
		{
			name:        "plus-inf-dropped-not-ranked-first",
			scores:      []float64{inf, 0.3, 0.6},
			k:           2,
			wantItems:   []int32{2, 1},
			wantDropped: 1,
		},
		{
			name:        "minus-inf-dropped-not-padding-tail",
			scores:      []float64{-inf, 0.3, 0.6},
			k:           3,
			wantItems:   []int32{2, 1},
			wantDropped: 1,
		},
		{
			name:        "all-non-finite",
			scores:      []float64{nan, inf, -inf, nan},
			k:           2,
			wantItems:   nil,
			wantDropped: 4,
		},
		{
			name:        "excluded-non-finite-not-double-counted",
			scores:      []float64{nan, 0.5, nan, 0.7},
			k:           2,
			exclude:     func(i int32) bool { return i == 0 },
			wantItems:   []int32{3, 1},
			wantDropped: 1, // item 0 is excluded before the finiteness check
		},
		{
			name:        "all-tied-finite",
			scores:      []float64{0.4, 0.4, 0.4, 0.4, 0.4},
			k:           3,
			wantItems:   []int32{0, 1, 2},
			wantDropped: 0,
		},
		{
			name:        "tied-with-nan-neighbors",
			scores:      []float64{0.4, nan, 0.4, nan, 0.4},
			k:           2,
			wantItems:   []int32{0, 2},
			wantDropped: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, dropped := TopKDropped(tc.scores, tc.k, tc.exclude)
			if dropped != tc.wantDropped {
				t.Errorf("dropped = %d, want %d", dropped, tc.wantDropped)
			}
			if len(got) != len(tc.wantItems) {
				t.Fatalf("got %d entries (%v), want %d", len(got), got, len(tc.wantItems))
			}
			for i, e := range got {
				if e.Item != tc.wantItems[i] {
					t.Errorf("entry %d = item %d, want %d", i, e.Item, tc.wantItems[i])
				}
				if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
					t.Errorf("entry %d has non-finite score %v", i, e.Score)
				}
			}
			// The plain TopK wrapper agrees with the counting variant.
			plain := TopK(tc.scores, tc.k, tc.exclude)
			if len(plain) != len(got) {
				t.Errorf("TopK returned %d entries, TopKDropped %d", len(plain), len(got))
			}
		})
	}
}

func TestArgsortOrdering(t *testing.T) {
	scores := []float64{0.2, 0.8, 0.8, 0.1}
	got := Argsort(scores)
	want := []int32{1, 2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Argsort = %v, want %v", got, want)
			break
		}
	}
}

func TestArgsortIsPermutation(t *testing.T) {
	rng := mathx.NewRNG(2)
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	idx := Argsort(scores)
	seen := make([]bool, len(scores))
	for _, v := range idx {
		if seen[v] {
			t.Fatal("Argsort repeated an index")
		}
		seen[v] = true
	}
	if !sort.SliceIsSorted(idx, func(a, b int) bool {
		return scores[idx[a]] > scores[idx[b]]
	}) {
		t.Error("Argsort not descending")
	}
}

func TestRanks(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5}
	got := Ranks(scores, []int32{0, 1, 2})
	want := []int{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks = %v, want %v", got, want)
			break
		}
	}
}

func TestRanksTieBreaking(t *testing.T) {
	// Equal scores: the smaller id ranks first, consistent with TopK.
	scores := []float64{0.5, 0.5}
	got := Ranks(scores, []int32{0, 1})
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("tie ranks = %v, want [1 2]", got)
	}
}

func TestRanksConsistentWithArgsort(t *testing.T) {
	rng := mathx.NewRNG(3)
	scores := make([]float64, 50)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	order := Argsort(scores)
	items := make([]int32, len(scores))
	for i := range items {
		items[i] = int32(i)
	}
	ranks := Ranks(scores, items)
	for pos, it := range order {
		if ranks[it] != pos+1 {
			t.Fatalf("item %d: rank %d, Argsort position %d", it, ranks[it], pos+1)
		}
	}
}

func TestReverse(t *testing.T) {
	xs := []int32{1, 2, 3, 4}
	Reverse(xs)
	want := []int32{4, 3, 2, 1}
	for i := range want {
		if xs[i] != want[i] {
			t.Errorf("Reverse = %v", xs)
			break
		}
	}
	single := []int32{7}
	Reverse(single)
	if single[0] != 7 {
		t.Error("Reverse broke singleton")
	}
}

func TestTopKEntriesShortCandidateList(t *testing.T) {
	es := []Entry{{Item: 4, Score: 1.5}, {Item: 2, Score: 3.0}}
	got := TopKEntries(es, 10)
	if len(got) != 2 {
		t.Fatalf("k over candidate count: got %d entries, want 2", len(got))
	}
	if got[0].Item != 2 || got[1].Item != 4 {
		t.Errorf("order = %v, want item 2 then 4", got)
	}
	if got := TopKEntries(nil, 5); len(got) != 0 {
		t.Errorf("empty candidates: got %d entries", len(got))
	}
	if got := TopKEntries(es, 0); len(got) != 0 {
		t.Errorf("k=0: got %d entries", len(got))
	}
}

func TestTopKEntriesDropsNonFinite(t *testing.T) {
	es := []Entry{
		{Item: 0, Score: math.NaN()},
		{Item: 1, Score: math.Inf(1)},
		{Item: 2, Score: math.Inf(-1)},
		{Item: 3, Score: 0.5},
	}
	got, dropped := TopKEntriesDropped(es, 4)
	if dropped != 3 {
		t.Errorf("dropped = %d, want 3", dropped)
	}
	if len(got) != 1 || got[0].Item != 3 {
		t.Errorf("got %v, want only item 3", got)
	}
}

// TestTopKEntriesOrderInvariant: the selection must be a pure function of
// the entry *set* — any permutation of the non-excluded items of a dense
// vector returns results identical to TopKDropped, including boundary
// ties. This is the property the IVF probe path (cell-major iteration
// order) relies on.
func TestTopKEntriesOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		scores := make([]float64, 40)
		es := make([]Entry, 0, len(scores))
		for i := range scores {
			// Coarse quantization forces score ties across items.
			scores[i] = math.Floor(rng.Float64()*8) / 4
			es = append(es, Entry{Item: int32(i), Score: scores[i]})
		}
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		k := 1 + rng.Intn(12)
		want, wantDropped := TopKDropped(scores, k, nil)
		got, gotDropped := TopKEntriesDropped(es, k)
		if gotDropped != wantDropped || len(got) != len(want) {
			t.Fatalf("trial %d: %d/%d entries, %d/%d dropped", trial, len(got), len(want), gotDropped, wantDropped)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestHeapZeroAndNegativeK(t *testing.T) {
	for _, k := range []int{0, -3} {
		sel := NewSelector(k, nil)
		h := &sel.heap
		h.Push(Entry{Item: 1, Score: 5})
		if h.Len() != 0 {
			t.Errorf("k=%d: Len = %d after push, want 0", k, h.Len())
		}
		if got := h.Finish(); len(got) != 0 {
			t.Errorf("k=%d: Finish returned %d entries", k, len(got))
		}
	}
}

func TestHeapRootTracksWorstRetained(t *testing.T) {
	sel := NewSelector(3, nil)
	h := &sel.heap
	for _, e := range []Entry{{0, 5}, {1, 1}, {2, 3}, {3, 4}, {4, 0}} {
		h.Push(e)
	}
	if r := h.Root(); r.Item != 2 || r.Score != 3 {
		t.Errorf("Root = %+v, want item 2 score 3", r)
	}
	got := h.Finish()
	want := []Entry{{0, 5}, {3, 4}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("Finish len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
