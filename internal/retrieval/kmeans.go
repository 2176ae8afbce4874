package retrieval

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"clapf/internal/mathx"
)

// kmeans runs seeded spherical k-means over n unit-norm rows of x
// (D coordinates each): centroids maximize the dot product with their
// members, assignments break ties toward the lower cell index, and empty
// cells are reseeded deterministically from the worst-served point. It
// returns the flat centroid matrix (k'×D, k' = min(k, n)) and each row's
// cell assignment. The first sweep scores every centroid; each later one
// rescores only the centroids the bound filter over that sweep's
// centroids lets through (assignAll), with the same result.
//
// Determinism is a contract, not a nicety: the serve path rebuilds the
// index whenever the item half changes, and hot-reload tests pin exact
// responses per generation — two builds from the same (x, seed) must agree
// bit for bit, on any number of cores. Only the assignment sweep is fanned
// out (assignAll); the update step stays one serial loop in point order,
// because float sums and the reseed's pick of the worst-served point must
// not depend on which worker finished first. No map is traversed.
func kmeans(x []float64, n, D, k, iters int, rng *mathx.RNG) (centroids []float64, assign []int32) {
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	centroids = make([]float64, k*D)
	// Init: k distinct row indices from the seeded permutation. Duplicate
	// *vectors* are fine — identical centroids just split ties by index.
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		copy(centroids[c*D:c*D+D], x[perm[c]*D:perm[c]*D+D])
	}

	assign = make([]int32, n)
	affinity := make([]float64, n) // dot with the assigned centroid
	sums := make([]float64, k*D)
	counts := make([]int, k)

	var bound *mathx.Bound // nil in sweep 0: no point has a cell to beat yet
	for it := 0; it < iters; it++ {
		if it > 0 {
			bound = mathx.BoundOverF64(centroids, nil, D)
		}
		changed := assignAll(centroids, x, n, D, bound, assign, affinity)
		if it > 0 && !changed {
			break
		}

		for i := range sums {
			sums[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			row := x[i*D : i*D+D]
			s := sums[int(assign[i])*D : int(assign[i])*D+D]
			for j, v := range row {
				s[j] += v
			}
			counts[assign[i]]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Reseed the empty cell at the point its current centroid
				// serves worst; poisoning its recorded affinity keeps a
				// second empty cell from stealing the same point.
				w := worstServed(affinity)
				copy(centroids[c*D:c*D+D], x[w*D:w*D+D])
				affinity[w] = math.Inf(1)
				continue
			}
			row := centroids[c*D : c*D+D]
			inv := 1 / float64(counts[c])
			var norm2 float64
			for j := range row {
				v := sums[c*D+j] * inv
				row[j] = v
				norm2 += v * v
			}
			if norm2 > 0 {
				// Spherical step: project the mean back onto the sphere.
				inv = 1 / math.Sqrt(norm2)
				for j := range row {
					row[j] *= inv
				}
			}
			// norm2 == 0 (a cell of quarantined zero rows, or exactly
			// cancelling members): keep the zero mean — affinity 0 to
			// everything, deterministic.
		}
	}
	return centroids, assign
}

// assignChunk is how many points a sweep worker claims at a time: ~100 µs
// of scanning per touch of the shared cursor, under 1 % of a sweep.
const assignChunk = 256

// assignAll is one assignment sweep, nearly all of the build: assign[i]
// and affinity[i] become point i's nearest centroid and its dot product,
// ties toward the lower index, and the result reports whether any
// assignment moved. Up to GOMAXPROCS workers (the caller is one: a single
// worker starts no goroutine) claim assignChunk-point runs from one
// cursor, each with its own scratch; they write disjoint elements and only
// read the centroids, so the outcome is the serial loop's under any
// interleaving.
//
// A nil bound scores every centroid (nearest). Otherwise bound is the
// filter over these centroids (mathx.BoundOverF64), and assign holds each
// point's cell from the last sweep, whose dot product is the floor: the
// filter lets through every centroid whose exact dot is not below it,
// and only those are rescored with mathx.Dot, in ascending order under a
// strict >. The argmax and every centroid tied with it are among them, so
// the cell and its affinity are nearest's, bit for bit; after the first
// sweep a point's cell is rarely beaten, and a few dozen of several
// hundred centroids pass.
func assignAll(centroids, x []float64, n, D int, bound *mathx.Bound, assign []int32, affinity []float64) bool {
	k := len(centroids) / D
	workers := max(1, min(runtime.GOMAXPROCS(0), (n+assignChunk-1)/assignChunk))
	var cursor atomic.Int64
	var changed atomic.Bool
	sweep := func() {
		var (
			scan []float64 // nearest's k affinities
			p    []int8    // the bound's query image
			mask []uint64  // its survivors
		)
		if bound == nil {
			scan = make([]float64, k)
		} else {
			p, mask = make([]int8, bound.Stride()), make([]uint64, k/64+2)
		}
		moved := false
		for {
			lo := int(cursor.Add(assignChunk)) - assignChunk
			if lo >= n {
				break
			}
			for i := lo; i < min(lo+assignChunk, n); i++ {
				xi := x[i*D : i*D+D]
				bestC, bestA := int32(0), math.Inf(-1)
				if bound == nil {
					bestC, bestA = nearest(centroids, xi, scan)
				} else {
					cell := int(assign[i])
					floor := mathx.Dot(centroids[cell*D:cell*D+D], xi)
					delta, tol := bound.Query(xi, p)
					for w, word := range bound.Scan(p, delta, floor-tol, 0, k, mask) {
						for ; word != 0; word &= word - 1 {
							c := w*64 + bits.TrailingZeros64(word)
							if a := mathx.Dot(centroids[c*D:c*D+D], xi); a > bestA { // strict >: ties keep the lower index
								bestA, bestC = a, int32(c)
							}
						}
					}
				}
				if assign[i] != bestC {
					assign[i], moved = bestC, true
				}
				affinity[i] = bestA
			}
		}
		if moved {
			changed.Store(true)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep()
		}()
	}
	sweep()
	wg.Wait()
	return changed.Load()
}

// worstServed returns the index of the minimum affinity, ties toward the
// lower index.
func worstServed(aff []float64) int {
	w, min := 0, math.Inf(1)
	for i, a := range aff {
		if a < min {
			min, w = a, i
		}
	}
	return w
}

// nearest returns the centroid (rows of len(xi) coordinates, one per
// element of the scratch aff) with the largest dot product against xi,
// ties toward the lower index, and that dot product: the first sweep's
// scan, n·k·D multiply-adds, before any point has a cell for the bound
// filter to beat. It is one mathx.ScanF64 call: every affinity has the
// bits of mathx.Dot.
func nearest(centroids, xi, aff []float64) (int32, float64) {
	mathx.ScanF64(xi, centroids, nil, aff)
	bestC, bestA := int32(0), math.Inf(-1)
	for c, a := range aff {
		if a > bestA { // strict >: ties keep the lower index
			bestA, bestC = a, int32(c)
		}
	}
	return bestC, bestA
}
