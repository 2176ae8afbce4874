// Package eval implements the paper's evaluation protocol (§6.2–6.3): for
// every test user, rank *all* items unobserved in training by predicted
// score, then measure Precision@k, Recall@k, F1@k, 1-call@k, NDCG@k, AP
// (averaged to MAP), RR (averaged to MRR), and AUC against the held-out
// test positives. Unlike the sampled protocol of some neural-CF papers, no
// candidate subsampling is done — §6.3 is explicit about ranking the full
// unobserved set.
package eval

import "math"

// KMetrics bundles the top-k measures at a single cutoff.
type KMetrics struct {
	K       int
	Prec    float64
	Recall  float64
	F1      float64
	OneCall float64
	NDCG    float64
}

// ListEval measures one user's ranking from where the test positives
// landed in it. pos holds the 0-based positions of the positives that are
// candidates, ascending; numCand is the number of candidates ranked (every
// item that is not a training positive); numRel counts every test
// positive — one that is not a candidate never places but still counts
// toward recall and AP. Each method walks pos in rank order, the order a
// walk down the full ranked list meets the positives in.
type ListEval struct {
	pos     []int
	numRel  int
	numCand int
}

// NewListEval wraps one user's positive positions.
func NewListEval(pos []int, numRel, numCand int) ListEval {
	return ListEval{pos: pos, numRel: numRel, numCand: numCand}
}

// AtK returns the cutoff measures at k.
func (l ListEval) AtK(k int) KMetrics {
	if k <= 0 {
		return KMetrics{K: k}
	}
	hits := 0
	dcg := 0.0
	for _, p := range l.pos {
		if p >= k {
			break
		}
		hits++
		dcg += 1 / math.Log2(float64(p)+2)
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
	// Ideal DCG places min(numRel, k) relevant items at the top.
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

// AP returns average precision over the full candidate list: the mean, over
// relevant items, of precision at each relevant item's position (Eq. 8's
// exact, unsmoothed form). Relevant items missing from the candidate list
// contribute zero.
func (l ListEval) AP() float64 {
	if l.numRel == 0 {
		return 0
	}
	var sum float64
	for h, p := range l.pos {
		sum += float64(h+1) / float64(p+1)
	}
	return sum / float64(l.numRel)
}

// RR returns the reciprocal rank of the first relevant item (Eq. 5's exact
// form), or 0 when none is present.
func (l ListEval) RR() float64 {
	if len(l.pos) == 0 {
		return 0
	}
	return 1 / float64(l.pos[0]+1)
}

// AUC returns the exact pairwise AUC of Eq. 1: the fraction of
// (relevant, irrelevant) candidate pairs the ranking orders correctly.
// Users with no relevant or no irrelevant candidates yield 0.
func (l ListEval) AUC() float64 {
	numPos := len(l.pos)
	numNeg := l.numCand - numPos
	if numPos == 0 || numNeg == 0 {
		return 0
	}
	// A relevant item at position p with `seen` relevant items above it has
	// (p − seen) irrelevant items above it, i.e. it beats numNeg − (p − seen)
	// of the irrelevant items.
	var correct float64
	for seen, p := range l.pos {
		correct += float64(numNeg - (p - seen))
	}
	return correct / (float64(numPos) * float64(numNeg))
}
