package mathx_test

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/served"
)

// BenchmarkBoundI8 is the filter's scan at the benchmark's catalog shape,
// beside BenchmarkScanF64F32: tiles scans it as score.Engine.sweep does, 53
// calls of at most 512 rows, each into one mask; portable is the Go body
// over the whole catalog. served is tiles over the float32 catalog the
// benchmark serves, every user in turn, against the user's final floor
// (the tenth best score outside their training positives) minus E, and
// reports the rows that threshold lets through (survivors/query) — the
// fewest a sweep can rescore, its floor known from the start.
func BenchmarkBoundI8(b *testing.B) {
	const n, tile = 26744, 512
	rng := mathx.NewRNG(1)
	randF := func(n int) []float32 {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(rng.NormFloat64())
		}
		return xs
	}
	var mask [tile/64 + 2]uint64
	tiles := func(bd *mathx.Bound, p []int8, delta float32, thr float64, rows int) (survivors int) {
		for lo := 0; lo < rows; lo += tile {
			for _, w := range bd.Scan(p, delta, thr, lo, min(lo+tile, rows), mask[:]) {
				survivors += bits.OnesCount64(w)
			}
		}
		return survivors
	}
	for _, d := range []int{16, 18} {
		bd := mathx.BoundOverF32(randF(n*d), randF(n), d)
		p := make([]int8, bd.Stride())
		u := make([]float64, d)
		for k := range u {
			u[k] = rng.NormFloat64()
		}
		delta, _ := bd.Query(u, p)
		b.Run(fmt.Sprintf("tiles/d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tiles(bd, p, delta, 3, n)
			}
		})
		b.Run(fmt.Sprintf("portable/d=%d", d), func(b *testing.B) {
			all := make([]uint64, (n+63)/64+1)
			for i := 0; i < b.N; i++ {
				bd.ScanPortable(p, delta, 3, all)
			}
		})
	}
	b.Run("served", func(b *testing.B) {
		c := servedCatalog()
		p := make([]int8, c.bound.Stride())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := i % len(c.thr)
			delta, _ := c.bound.Query(c.users[u], p)
			tiles(c.bound, p, delta, c.thr[u], c.rows)
		}
		b.StopTimer()
		survivors := 0
		for u, uf := range c.users {
			delta, _ := c.bound.Query(uf, p)
			survivors += tiles(c.bound, p, delta, c.thr[u], c.rows)
		}
		b.ReportMetric(float64(survivors)/float64(len(c.users)), "survivors/query")
	})
}

// servedBound is the float32 catalog the repository's benchmark serves
// (package served) as the bound filter sees it, with each of the first 256
// users' vector and final threshold.
type servedBound struct {
	bound *mathx.Bound
	rows  int
	users [][]float64
	thr   []float64
}

var servedCatalog = sync.OnceValue(func() servedBound {
	m, positives := served.Catalog()
	f := mf.QuantizeF32(m)
	_, v, b := f.RawParams32()
	c := servedBound{bound: mathx.BoundOverF32(v, b, f.Dim()), rows: f.NumItems()}
	scores, img := make([]float64, f.NumItems()), make([]int8, c.bound.Stride())
	for u := int32(0); u < 256; u++ {
		uf := f.UserVector(u, nil)
		f.ScoreRangeFoldIn(uf, 0, f.NumItems(), scores)
		top := rank.NewSelector(10, positives[u])
		top.OfferRun(0, scores)
		_, tol := c.bound.Query(uf, img)
		c.users, c.thr = append(c.users, uf), append(c.thr, top.Floor()-tol)
	}
	return c
})

// BenchmarkBoundQuery is one query's image and E, which every bound scan
// pays once: a serving miss per request, the IVF build per point and sweep.
func BenchmarkBoundQuery(b *testing.B) {
	const n = 4096
	rng := mathx.NewRNG(2)
	for _, d := range []int{16, 18} {
		v, u := make([]float64, n*d), make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for k := range u {
			u[k] = rng.NormFloat64()
		}
		bd := mathx.BoundOverF64(v, nil, d)
		p := make([]int8, bd.Stride())
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, tolSink = bd.Query(u, p)
			}
		})
	}
}

var tolSink float64
