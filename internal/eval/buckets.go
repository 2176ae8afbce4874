package eval

import (
	"fmt"
	"sort"

	"clapf/internal/dataset"
)

// Popularity-stratified evaluation: long-tail corpora hide *where* a
// recommender earns its metrics — a model can look strong while only ever
// re-ranking the head. BucketEvaluate splits the catalog into popularity
// bands by training-set interaction counts and reports recall separately
// per band, the standard diagnostic for popularity bias.

// Bucket names a popularity band.
type Bucket int

const (
	// Head is the most-popular band (top HeadFrac of interactions).
	Head Bucket = iota
	// Mid is the middle band.
	Mid
	// Tail is the least-popular band.
	Tail
	numBuckets
)

// String returns the band's display name.
func (b Bucket) String() string {
	switch b {
	case Head:
		return "head"
	case Mid:
		return "mid"
	case Tail:
		return "tail"
	default:
		return fmt.Sprintf("Bucket(%d)", int(b))
	}
}

// BucketResult reports, per popularity band, how many test positives fall
// in the band and what fraction of them were recovered in the top-k.
type BucketResult struct {
	K int
	// Positives[b] counts test positives whose item lies in band b.
	Positives [numBuckets]int
	// Recovered[b] counts those found within the evaluated users' top-k.
	Recovered [numBuckets]int
}

// Recall returns Recovered/Positives for the band (0 when empty).
func (r BucketResult) Recall(b Bucket) float64 {
	if r.Positives[b] == 0 {
		return 0
	}
	return float64(r.Recovered[b]) / float64(r.Positives[b])
}

// ItemBuckets assigns every item a popularity band from training counts:
// items are ranked by popularity, and the band boundaries are drawn where
// cumulative interaction mass crosses headFrac and headFrac+midFrac —
// so "head" is the few items that absorb the first headFrac of all
// interactions, matching the long-tail framing.
func ItemBuckets(train *dataset.Dataset, headFrac, midFrac float64) ([]Bucket, error) {
	if headFrac <= 0 || midFrac <= 0 || headFrac+midFrac >= 1 {
		return nil, fmt.Errorf("eval: bucket fractions (%v, %v) must be positive and sum below 1", headFrac, midFrac)
	}
	pop := train.ItemPopularity()
	order := make([]int32, len(pop))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if pop[ia] != pop[ib] {
			return pop[ia] > pop[ib]
		}
		return ia < ib
	})
	total := 0
	for _, c := range pop {
		total += c
	}
	buckets := make([]Bucket, len(pop))
	cum := 0
	for _, it := range order {
		frac := 0.0
		if total > 0 {
			frac = float64(cum) / float64(total)
		}
		switch {
		case frac < headFrac:
			buckets[it] = Head
		case frac < headFrac+midFrac:
			buckets[it] = Mid
		default:
			buckets[it] = Tail
		}
		cum += pop[it]
	}
	return buckets, nil
}

// BucketEvaluate runs the full-ranking protocol and attributes each
// recovered test positive — one placed within the top k — to its
// popularity band. Options.Workers fans the users out as in Evaluate.
func BucketEvaluate(s Scorer, train, test *dataset.Dataset, k int, headFrac, midFrac float64, opts Options) (BucketResult, error) {
	if k <= 0 {
		return BucketResult{}, fmt.Errorf("eval: k = %d, want > 0", k)
	}
	buckets, err := ItemBuckets(train, headFrac, midFrac)
	if err != nil {
		return BucketResult{}, err
	}
	users := testUsers(test, opts)
	recovered := make([][numBuckets]int, len(users))
	eachRanking(s, train, test, users, opts.Workers, func(idx int, r *ranker) {
		for j, it := range r.items {
			if r.pos[j] >= k {
				break
			}
			recovered[idx][buckets[it]]++
		}
	})
	res := BucketResult{K: k}
	for idx, u := range users {
		for _, it := range test.Positives(u) {
			res.Positives[buckets[it]]++
		}
		for b, n := range recovered[idx] {
			res.Recovered[b] += n
		}
	}
	return res, nil
}
