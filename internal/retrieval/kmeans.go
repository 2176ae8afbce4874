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
// cell assignment. The first sweep scores every centroid against every
// point; each later one rescores, for each centroid, only the points the
// bound filter over the points (one image a build, rebiased by each
// sweep) lets through (assignAll), with the same result.
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

	points := mathx.BoundOverF64(x, nil, D) // the image every bounded sweep rebiases
	for it := 0; it < iters; it++ {
		bound := points
		if it == 0 {
			bound = nil // no point has a cell to beat yet
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

// assignChunk is how many points a sweep worker claims at a time, a
// multiple of the bound's 16-row block so that every chunk's scans start
// on one: each centroid is scanned over the chunk in one call, and the
// chunk's points, their image and their running bests stay in cache
// across all k of them.
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
// The sweep is transposed: a worker takes the centroids in ascending
// order, scores each against the points of its run and keeps each point's
// best under a strict >, so ties keep the lower index. With points nil
// every centroid is scored against every point, one mathx.ScanF64 per
// centroid and run. Otherwise points is the bound filter over x
// (mathx.BoundOverF64(x, nil, D)), and assign holds each point's cell from
// the last sweep, whose dot product is the point's floor. The sweep rebiases the image by minus
// the floors (Bound.WithBias) and makes each centroid one query: a point
// whose dot with the centroid is not below its floor scores at least 0
// exactly, so at least −E in the image, and survives the scan against −E.
// Only the survivors are rescored, one mathx.ScanF64Rows call per centroid
// and run. The argmax and every centroid tied with it are among them, so
// the cell and its affinity are the full scan's, bit for bit; after the
// first sweep a point's cell is rarely beaten, and 14–18 of 328 centroids
// reach a point of the served catalog.
func assignAll(centroids, x []float64, n, D int, points *mathx.Bound, assign []int32, affinity []float64) bool {
	k := len(centroids) / D
	var (
		bound  *mathx.Bound
		stride int
		images []int8    // centroid c's query image at c·stride
		deltas []float32 // its scale Δ_c
		thrs   []float64 // −E_c
	)
	if points != nil {
		negFloor := make([]float64, n)
		for i := range negFloor {
			c := int(assign[i])
			negFloor[i] = -mathx.Dot(centroids[c*D:c*D+D], x[i*D:i*D+D])
		}
		bound, stride = points.WithBias(negFloor), points.Stride()
		images, deltas, thrs = make([]int8, k*stride), make([]float32, k), make([]float64, k)
		for c := 0; c < k; c++ {
			delta, tol := bound.Query(centroids[c*D:c*D+D], images[c*stride:c*stride+stride])
			deltas[c], thrs[c] = delta, -tol
		}
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), (n+assignChunk-1)/assignChunk))
	var cursor atomic.Int64
	var changed atomic.Bool
	sweep := func() {
		var (
			bestC [assignChunk]int32
			bestA [assignChunk]float64
			out   [assignChunk]float64
			rows  = make([]int32, 0, assignChunk) // a centroid's survivors in the run
			mask  = make([]uint64, assignChunk/64+2)
		)
		moved := false
		for {
			lo := int(cursor.Add(assignChunk)) - assignChunk
			if lo >= n {
				break
			}
			hi := min(lo+assignChunk, n)
			run := x[lo*D : hi*D]
			for j := range hi - lo {
				bestC[j], bestA[j] = 0, math.Inf(-1)
			}
			for c := 0; c < k; c++ {
				cv := centroids[c*D : c*D+D]
				if bound == nil {
					mathx.ScanF64(cv, run, nil, out[:hi-lo])
					for j, a := range out[:hi-lo] {
						if a > bestA[j] { // strict >: ties keep the lower index
							bestA[j], bestC[j] = a, int32(c)
						}
					}
					continue
				}
				rows = rows[:0]
				for w, word := range bound.Scan(images[c*stride:c*stride+stride], deltas[c], thrs[c], lo, hi, mask) {
					for ; word != 0; word &= word - 1 {
						rows = append(rows, int32(w*64+bits.TrailingZeros64(word)))
					}
				}
				mathx.ScanF64Rows(cv, run, rows, out[:len(rows)])
				for j, r := range rows {
					if a := out[j]; a > bestA[r] {
						bestA[r], bestC[r] = a, int32(c)
					}
				}
			}
			for j := range hi - lo {
				i := lo + j
				if assign[i] != bestC[j] {
					assign[i], moved = bestC[j], true
				}
				affinity[i] = bestA[j]
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
