package mathx

// ScanPortable is Bound.Scan over every row of the image through
// boundMaskGo, the portable body, for the external benchmarks.
func (bd *Bound) ScanPortable(p []int8, delta float32, thr float64, mask []uint64) {
	boundMaskGo(p, delta, querySum(p), thr, bd.q, bd.b, mask)
}
