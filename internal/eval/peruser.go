package eval

import "clapf/internal/dataset"

// PerUserAtK runs the same full-ranking protocol as Evaluate but returns
// the raw per-user Prec@k and NDCG@k samples instead of their means. The
// slices are parallel and ordered by user id, so calling this with two
// scorers over the same splits yields matched observation pairs — the
// input a significance test (mathx.WelchTTest) needs to decide whether a
// quantized or approximate scorer is distinguishable from the reference,
// rather than comparing two already-averaged scalars. Users without test
// positives contribute no sample, exactly as Evaluate skips them.
func PerUserAtK(s Scorer, train, test *dataset.Dataset, k int) (prec, ndcg []float64) {
	for _, row := range userRows(s, train, test, test.UsersWithAtLeast(1), []int{k}, 1) {
		prec = append(prec, row.atK[0].Prec)
		ndcg = append(ndcg, row.atK[0].NDCG)
	}
	return prec, ndcg
}
