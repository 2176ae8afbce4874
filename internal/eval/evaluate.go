package eval

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/obs"
)

// Scorer is the interface every recommender in the repository satisfies:
// fill out[i] with the predicted relevance of item i for user u. len(out)
// equals the item count. It is the repository's one ScoreAll interface.
type Scorer interface {
	ScoreAll(u int32, out []float64)
}

// Options tunes the evaluation run.
type Options struct {
	// Ks are the cutoffs to report. Defaults to {3, 5, 10, 15, 20}, the
	// paper's Figure 2 sweep.
	Ks []int
	// MaxUsers, when positive, evaluates a uniform sample of at most this
	// many test users — the convergence traces of Figure 4 re-evaluate
	// every epoch and would otherwise dominate training time.
	MaxUsers int
	// RNG drives the user sampling; required when MaxUsers > 0.
	RNG *mathx.RNG
	// Workers, when > 1, ranks users on that many goroutines. Per-user
	// results are reduced sequentially in user order afterwards, so the
	// metrics are bit-identical for every worker count (only Timing
	// varies); Scorer.ScoreAll must be safe for concurrent calls, which
	// holds for mf.Model and every baseline in this repository.
	Workers int
}

// DefaultKs is the paper's top-k sweep.
var DefaultKs = []int{3, 5, 10, 15, 20}

// Result aggregates metrics over all evaluated users.
type Result struct {
	AtK    []KMetrics // one per requested cutoff, in Ks order
	MAP    float64
	MRR    float64
	AUC    float64
	Users  int // users with at least one test positive that were evaluated
	Timing Timing
}

// Timing breaks the evaluation wall-clock into its phases, accumulated
// across users: model scoring (ScoreAll), ranking (placing the test
// positives among the unobserved items), and metric computation. Total
// covers the whole Evaluate call, including user selection. With
// Workers > 1 the phase fields are summed across goroutines and exceed
// Total when the speedup is real.
type Timing struct {
	Score   time.Duration
	Rank    time.Duration
	Metrics time.Duration
	Total   time.Duration
}

// String renders the phase breakdown for log lines and CLI summaries.
func (t Timing) String() string {
	return fmt.Sprintf("total %s (score %s, rank %s, metrics %s)",
		t.Total.Round(time.Millisecond), t.Score.Round(time.Millisecond),
		t.Rank.Round(time.Millisecond), t.Metrics.Round(time.Millisecond))
}

// At returns the KMetrics for cutoff k, or an error if k was not requested.
func (r Result) At(k int) (KMetrics, error) {
	for _, m := range r.AtK {
		if m.K == k {
			return m, nil
		}
	}
	return KMetrics{}, fmt.Errorf("eval: cutoff %d not in result", k)
}

// MustAt is At for cutoffs known to be present.
func (r Result) MustAt(k int) KMetrics {
	m, err := r.At(k)
	if err != nil {
		panic(err)
	}
	return m
}

// userRow is one user's finished contribution, computed independently
// (possibly concurrently) and folded into the Result sequentially.
type userRow struct {
	atK    []KMetrics // parallel to ks
	ap, rr float64
	auc    float64
	timing Timing
}

// Evaluate runs the full-ranking protocol: each user with test positives
// has every training-unobserved item ranked by s, and per-user metrics are
// averaged. Training positives are excluded from the candidate set (they
// are not recommendable); test positives are the relevance labels. Every
// metric reads only where the test positives land, so that is all the
// ranking computes (ranker.place).
//
// Per-user work is embarrassingly parallel, so Options.Workers fans it
// out; the reduction always walks users in id order, making the returned
// metrics independent of the worker count down to the last bit.
func Evaluate(s Scorer, train, test *dataset.Dataset, opts Options) Result {
	total := obs.StartSpan("eval")
	ks := opts.Ks
	if len(ks) == 0 {
		ks = DefaultKs
	}
	rows := userRows(s, train, test, testUsers(test, opts), ks, opts.Workers)

	// Sequential reduce in user order: the float additions happen in the
	// same sequence as a serial pass, for any worker count.
	sums := make([]KMetrics, len(ks))
	for i, k := range ks {
		sums[i].K = k
	}
	var timing Timing
	var mapSum, mrrSum, aucSum float64
	for i := range rows {
		r := &rows[i]
		timing.Score += r.timing.Score
		timing.Rank += r.timing.Rank
		timing.Metrics += r.timing.Metrics
		for j := range ks {
			sums[j].Prec += r.atK[j].Prec
			sums[j].Recall += r.atK[j].Recall
			sums[j].F1 += r.atK[j].F1
			sums[j].OneCall += r.atK[j].OneCall
			sums[j].NDCG += r.atK[j].NDCG
		}
		mapSum += r.ap
		mrrSum += r.rr
		aucSum += r.auc
	}

	res := Result{AtK: sums, Users: len(rows)}
	timing.Total = total.End()
	res.Timing = timing
	if len(rows) == 0 {
		return res
	}
	n := float64(len(rows))
	for i := range res.AtK {
		res.AtK[i].Prec /= n
		res.AtK[i].Recall /= n
		res.AtK[i].F1 /= n
		res.AtK[i].OneCall /= n
		res.AtK[i].NDCG /= n
	}
	res.MAP = mapSum / n
	res.MRR = mrrSum / n
	res.AUC = aucSum / n
	return res
}

// userRows computes every user's metric row, in users order.
func userRows(s Scorer, train, test *dataset.Dataset, users []int32, ks []int, workers int) []userRow {
	rows := make([]userRow, len(users))
	eachRanking(s, train, test, users, workers, func(idx int, r *ranker) {
		sp := obs.StartSpan("eval.metrics")
		le := NewListEval(r.pos, r.numRel, r.numCand)
		row := userRow{atK: make([]KMetrics, len(ks)), ap: le.AP(), rr: le.RR(), auc: le.AUC(), timing: r.timing}
		for i, k := range ks {
			row.atK[i] = le.AtK(k)
		}
		row.timing.Metrics = sp.End()
		rows[idx] = row
	})
	return rows
}

// eachRanking scores and ranks every user in users on max(workers, 1)
// goroutines — one is the serial case — and calls visit(idx, r) with
// users[idx]'s ranking. Users are claimed through an atomic counter, so
// visit runs concurrently: it must write only to slot idx, and r is its
// goroutine's reusable state, overwritten by that goroutine's next user.
// Scorer.ScoreAll is called concurrently when workers > 1.
func eachRanking(s Scorer, train, test *dataset.Dataset, users []int32, workers int, visit func(idx int, r *ranker)) {
	workers = max(1, min(workers, len(users)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &ranker{scores: make([]float64, train.NumItems())}
			for idx := int(next.Add(1)) - 1; idx < len(users); idx = int(next.Add(1)) - 1 {
				u := users[idx]
				sp := obs.StartSpan("eval.score")
				s.ScoreAll(u, r.scores)
				r.timing.Score = sp.End()
				sp = obs.StartSpan("eval.rank")
				r.place(r.scores, train.Positives(u), test.Positives(u))
				r.timing.Rank = sp.End()
				visit(idx, r)
			}
		}()
	}
	wg.Wait()
}

// ranker places one user's test positives among their candidates — every
// item that is not one of the user's training positives — where a full
// ranking of the candidates would put them. It is one goroutine's
// reusable state.
type ranker struct {
	scores  []float64
	items   []int32  // the test positives that are candidates, best first
	keys    []uint64 // rankKey of each of items
	pos     []int    // pos[j] is items[j]'s 0-based position; ascending
	numRel  int      // every test positive, training positives included
	numCand int
	timing  Timing // Score and Rank of the last user
}

// place fills items, pos, numRel and numCand from a user's score row,
// training positives and test positives (both ascending). Candidates rank
// by rankKey descending, then id ascending. A positive's position is the
// number of candidates ranked above it, so nothing is sorted but the
// positives: every candidate is compared with the lowest-ranked positive,
// and one that beats it pays a binary search for the best positive it
// beats — O(m + k·log r) for m items, r positives and k candidates above
// the lowest of them.
func (r *ranker) place(scores []float64, trainPos, rel []int32) {
	r.numRel, r.numCand = len(rel), len(scores)-len(trainPos)
	items := r.items[:0]
	tp := 0
	for _, it := range rel {
		for tp < len(trainPos) && trainPos[tp] < it {
			tp++
		}
		if tp == len(trainPos) || trainPos[tp] != it {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(a, b int) bool {
		return ranksAbove(rankKey(scores[items[a]]), items[a], rankKey(scores[items[b]]), items[b]) == 1
	})
	keys, above := r.keys[:0], r.pos[:0]
	for _, it := range items {
		keys = append(keys, rankKey(scores[it]))
		above = append(above, 0)
	}
	r.items, r.keys, r.pos = items, keys, above
	if len(items) == 0 {
		return
	}

	// above[j] counts the candidates whose best beaten positive is
	// items[j]; its prefix sums are the positions.
	lowKey, lowID := keys[len(keys)-1], items[len(items)-1]
	lo := int32(0)
	for t := 0; t <= len(trainPos); t++ {
		hi := int32(len(scores))
		if t < len(trainPos) {
			hi = trainPos[t]
		}
		for i := lo; i < hi; i++ {
			k := rankKey(scores[i])
			if ranksAbove(k, i, lowKey, lowID) == 0 {
				continue
			}
			// The first positive it beats, by a binary search whose steps
			// take no data-dependent branch: a random candidate would
			// mispredict half of them.
			j, n := 0, len(keys)
			for n > 1 {
				half := n >> 1
				j += half & int(ranksAbove(k, i, keys[j+half-1], items[j+half-1])-1)
				n -= half
			}
			above[j]++
		}
		lo = hi + 1
	}
	for j := 1; j < len(above); j++ {
		above[j] += above[j-1]
	}
}

// ranksAbove is 1 when an item with rankKey k and id i ranks above one
// with key kp and id ip — the larger key, or on a tie the smaller id —
// and 0 otherwise, computed without a branch.
func ranksAbove(k uint64, i int32, kp uint64, ip int32) uint64 {
	_, lower := bits.Sub64(uint64(i), uint64(ip), 0) // 1 when i < ip
	_, above := bits.Sub64(kp-lower, k, 0)           // 1 when k > kp − lower
	return above
}

// rankKey maps a score to an integer in ranking order: the numbers,
// ±Inf included, in numeric order (−0 equal to +0), and NaN below every
// number — the one rule for non-finite scores in Evaluate, PerUserAtK and
// BucketEvaluate. Every key is at least 1, so ranksAbove's kp − 1 holds.
func rankKey(x float64) uint64 {
	if x != x {
		return 1
	}
	b := math.Float64bits(x + 0) // x + 0 is +0 for −0
	// Negative: flip every bit. Otherwise: set the sign bit.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// testUsers returns the users to evaluate, applying the optional sampling
// cap deterministically.
func testUsers(test *dataset.Dataset, opts Options) []int32 {
	all := test.UsersWithAtLeast(1)
	if opts.MaxUsers <= 0 || len(all) <= opts.MaxUsers {
		return all
	}
	rng := opts.RNG
	if rng == nil {
		rng = mathx.NewRNG(0)
	}
	perm := rng.Perm(len(all))
	out := make([]int32, opts.MaxUsers)
	for i := range out {
		out[i] = all[perm[i]]
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
