package mathx

// ScanPortable is Bound.Scan over every row of the image through
// boundMaskGo, the portable body, for the external benchmarks.
func (bd *Bound) ScanPortable(q *Query, thr float64, mask []uint64) {
	boundMaskGo(q.image(), q.delta, q.sum, thr, bd.q, bd.b, mask)
}
