// Package rank provides ranked-list utilities: bounded top-k selection over
// score vectors and rank lookups, the building blocks of both the
// evaluation protocol (rank all unobserved items) and the rank-aware
// samplers.
//
// There is one selection loop. Selector.Offer — count and drop a
// non-finite score, reject a below-floor candidate with a local
// comparison, push onto the bounded Heap — is what the dense
// (TopKDropped), candidate-list (TopKEntriesDropped), IVF
// (retrieval.Index.SearchCells, through OfferIDs) and fused exact
// (score.Engine.TopK, through OfferRun) paths all run, so identical inputs
// select identical entries and count identical drops whichever path
// scored them.
package rank

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"clapf/internal/mathx"
)

// Entry pairs an item index with its score. It is the one (item, score)
// type from the selector to the wire: serve.Item and clapf.Recommendation
// are aliases, so the tags are the /recommend body's field names.
type Entry struct {
	Item  int32   `json:"item"`
	Score float64 `json:"score"`
}

// TopK returns the k highest-scoring item indices, best first, skipping
// items for which exclude returns true. Ties break toward the smaller item
// id so results are deterministic. exclude may be nil; it is called at
// most once per item, in increasing item order — callers filtering
// against a sorted id list can use a stateful merge pointer instead of a
// per-item binary search.
//
// Non-finite scores (NaN, ±Inf) are dropped: NaN violates the strict weak
// ordering the heap relies on — one poisoned comparison can silently
// corrupt the whole result — and an Inf score is always a diverged or
// bit-flipped parameter, never a ranking signal. Callers that need to
// observe how many were dropped use TopKDropped.
//
// It maintains a size-k min-heap over the scores, costing O(m log k) — the
// difference between feasible and infeasible when the protocol ranks every
// unobserved item for every test user.
func TopK(scores []float64, k int, exclude func(item int32) bool) []Entry {
	top, _ := TopKDropped(scores, k, exclude)
	return top
}

// TopKDropped is TopK plus the number of non-excluded items whose scores
// were dropped for being non-finite — the serve path counts and logs these
// (clapf_nonfinite_scores_total) so a corrupted model is visible instead
// of silently mis-ranking.
func TopKDropped(scores []float64, k int, exclude func(item int32) bool) ([]Entry, int) {
	if k <= 0 {
		return nil, 0
	}
	sel := NewSelector(k, nil)
	for i, sc := range scores {
		if it := int32(i); exclude == nil || !exclude(it) {
			sel.Offer(it, sc)
		}
	}
	return sel.Finish()
}

// TopKEntries selects the k best of the given entries under the same
// ordering as TopK (descending score, ties toward the smaller item id),
// dropping non-finite scores. Unlike TopK it takes an explicit candidate
// list rather than a dense score vector — the approximate-retrieval path
// ranks only the items surviving cluster pruning. When fewer than k
// finite candidates are supplied the result is shorter than k; callers
// must not assume a full list.
func TopKEntries(es []Entry, k int) []Entry {
	top, _ := TopKEntriesDropped(es, k)
	return top
}

// TopKEntriesDropped is TopKEntries plus the count of entries dropped for
// carrying a non-finite score. Because Heap selection depends only on the
// *set* of pushed entries (see Heap), feeding any permutation of the
// non-excluded items of a dense score vector — scores computed by the same
// operations — returns bit-identical results to TopKDropped over that
// vector.
func TopKEntriesDropped(es []Entry, k int) ([]Entry, int) {
	if k <= 0 {
		return nil, 0
	}
	sel := NewSelector(k, nil)
	for _, e := range es {
		sel.Offer(e.Item, e.Score)
	}
	return sel.Finish()
}

// Selector is the bounded top-k selection every ranking path shares: a
// Heap plus the three checks that stand between a scored candidate and a
// push. Callers stream candidates through Offer in any order; Finish
// returns the k best, best first, and how many offered scores were
// dropped for being non-finite. Because the Heap's order is total, the
// result depends only on the set of offered (item, score) pairs.
//
// A Selector also carries the caller's exclusion list, which it consults
// a tile at a time: OfferRun cuts a dense run of ids at each excluded one
// with a merge pointer, OfferIDs searches it only for the scattered ids
// whose scores survive the floor. Within a tile both jump from survivor
// to survivor — mathx.FirstNotBelow against the floor, whose complement
// is exactly "Offer does nothing" — so a below-floor score costs a
// quarter of a vector compare, not a call.
//
// The zero Selector is not usable; build one with NewSelector. It is a
// value so that it can live on the caller's stack.
type Selector struct {
	heap Heap
	// floor is the score of the heap's root once it holds k entries, and
	// -Inf before that, which no finite score is below: one comparison
	// serves both states.
	floor   float64
	dropped int
	ex      []int32 // ascending item ids to skip
	p       int     // merge pointer into ex
}

// NewSelector returns a selector retaining the k best offered entries.
// excludeSorted is an ascending list of item ids OfferRun and OfferIDs
// skip (nil for none); it is read, never written.
func NewSelector(k int, excludeSorted []int32) Selector {
	if k < 0 {
		k = 0
	}
	return Selector{
		heap:  Heap{h: make([]Entry, 0, k), k: k},
		floor: math.Inf(-1),
		ex:    excludeSorted,
	}
}

// Floor is the score an offered candidate must reach to be pushed: the
// k-th best so far once k are held, -Inf before that. A scan that can
// bound a candidate's score from above offers it only when the bound is
// not below Floor; Offer would ignore the rest.
func (s *Selector) Floor() float64 { return s.floor }

// skipTo advances the merge pointer to the first excluded id >= id.
func (s *Selector) skipTo(id int32) {
	for s.p < len(s.ex) && s.ex[s.p] < id {
		s.p++
	}
}

// Offer is the selection step: a non-finite score is counted and dropped;
// a candidate scoring below the current floor is rejected with one local
// comparison; anything else goes to the heap, whose total order settles a
// tie with the floor (the smaller id stays). The non-finite test comes
// strictly first — a -Inf score must count as dropped, not silently fail
// the floor comparison. Small enough to inline into the caller's scan
// loop; the heap work is out of line in push.
func (s *Selector) Offer(item int32, score float64) {
	if score-score != 0 { // NaN or ±Inf: x-x is 0 for every finite x only
		s.dropped++
	} else if score >= s.floor {
		s.push(item, score)
	}
}

// push retains the entry and refreshes the floor once the heap is full.
func (s *Selector) push(item int32, score float64) {
	s.heap.Push(Entry{Item: item, Score: score})
	if s.heap.k > 0 && s.heap.Len() == s.heap.k {
		s.floor = s.heap.Root().Score
	}
}

// OfferRun offers a dense run of scores — scores[j] belongs to item
// first+j — skipping excluded ids with the merge pointer. The fused exact
// scan feeds it one cache-resident tile at a time. The run is cut at each
// excluded id; between two of them the loop jumps from survivor to
// survivor: mathx.FirstNotBelow finds the next score Offer would not
// ignore (a finite score below the floor is all it ignores), Offer takes
// it, and the floor is read again because that push may have raised it.
func (s *Selector) OfferRun(first int32, scores []float64) {
	for len(scores) > 0 {
		s.skipTo(first)
		n := len(scores) // offered before the next excluded id, if any is in the run
		if s.p < len(s.ex) && int(s.ex[s.p]-first) < n {
			n = int(s.ex[s.p] - first)
		}
		run := scores[:n]
		for j := 0; ; j++ {
			if j += mathx.FirstNotBelow(run[j:], s.floor); j == n {
				break
			}
			s.Offer(first+int32(j), run[j])
		}
		if n == len(scores) {
			return
		}
		first, scores = first+int32(n)+1, scores[n+1:]
	}
}

// OfferIDs offers scores[j] for item ids[j], ids in any order — an IVF
// cell's members lie hundreds of ids apart, where a merge pointer would
// step the exclusion list once per candidate. It is OfferRun's survivor
// jump with the exclusion list searched only for the survivors, which are
// few: the retained set and the dropped count are those of skipping
// excluded ids up front.
func (s *Selector) OfferIDs(ids []int32, scores []float64) {
	scores = scores[:len(ids)]
	for j := 0; ; j++ {
		if j += mathx.FirstNotBelow(scores[j:], s.floor); j == len(scores) {
			return
		}
		if _, excluded := slices.BinarySearch(s.ex, ids[j]); !excluded {
			s.Offer(ids[j], scores[j])
		}
	}
}

// Finish returns the retained entries best first and the number of
// offered scores dropped for being non-finite. The selector must not be
// used afterwards.
func (s *Selector) Finish() ([]Entry, int) { return s.heap.Finish(), s.dropped }

// Heap is the bounded min-heap behind every top-k selection in this
// package: it retains the k best entries pushed so far, evicting the
// current worst. The ordering is total — descending score, ties toward the
// smaller item id — so the retained set, and therefore Finish's output, is
// a pure function of the set of pushed entries, independent of push order.
// Every top-k path reaches it through a Selector, which is what lets them
// guarantee identical selections for identical inputs.
//
// Pushing a NaN score corrupts the heap invariant (NaN breaks the total
// order); callers must drop non-finite scores first, as Selector.Offer
// does.
type Heap struct {
	h []Entry
	k int
}

// less orders the min-heap by score; for equal scores the *larger* item
// id is "smaller" so it gets evicted first, keeping small ids.
func (t *Heap) less(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}

// Push offers an entry; it is retained iff it ranks among the k best seen.
func (t *Heap) Push(e Entry) {
	h := t.h
	if t.k == 0 {
		return
	}
	if len(h) < t.k {
		t.h = append(h, e)
		t.siftUp(len(t.h) - 1)
		return
	}
	if t.less(h[0], e) {
		h[0] = e
		t.siftDown(0)
	}
}

func (t *Heap) siftUp(i int) {
	h := t.h
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (t *Heap) siftDown(i int) {
	h := t.h
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && t.less(h[l], h[s]) {
			s = l
		}
		if r < len(h) && t.less(h[r], h[s]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// Len returns how many entries are currently retained.
func (t *Heap) Len() int { return len(t.h) }

// Root returns the worst retained entry — the one the next successful
// Push would evict. It is only meaningful once Len() == k; it is the floor
// a Selector rejects candidates against without a Push call.
func (t *Heap) Root() Entry { return t.h[0] }

// Finish sorts the retained entries best-first (descending score, ties
// toward the smaller item id) and returns them. The heap must not be used
// afterwards.
func (t *Heap) Finish() []Entry {
	slices.SortFunc(t.h, func(a, b Entry) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		return cmp.Compare(a.Item, b.Item)
	})
	return t.h
}

// Ranks returns, for each requested item, its 1-based rank within the score
// vector under descending-score order (rank 1 = highest score). Only the
// requested items' ranks are computed, in O(m · |items|) worst case but
// O(m) for the common single-item call.
func Ranks(scores []float64, items []int32) []int {
	out := make([]int, len(items))
	for idx, it := range items {
		s := scores[it]
		r := 1
		for j, sc := range scores {
			if sc > s || (sc == s && int32(j) < it) {
				r++
			}
		}
		out[idx] = r
	}
	return out
}

// Argsort returns item indices ordered by descending score, ties broken by
// ascending item id. It is the full-sort used by the samplers' rank-list
// refresh.
func Argsort(scores []float64) []int32 {
	idx := make([]int32, len(scores))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return ia < ib
	})
	return idx
}

// Reverse reverses xs in place.
func Reverse(xs []int32) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
