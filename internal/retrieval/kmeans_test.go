package retrieval

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// indexHash is one FNV-64a over the bits of everything k-means decides:
// the probe centroids, their biases, the cell offsets and the cell-major
// ids. Two builds with the same hash cut the catalog into the same cells.
func indexHash(ix *Index) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, fs := range [][]float64{ix.probeVecs, ix.probeBias} {
		for _, f := range fs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
	}
	for _, is := range [][]int32{ix.offsets, ix.ids} {
		for _, i := range is {
			binary.LittleEndian.PutUint32(buf[:4], uint32(i))
			h.Write(buf[:4])
		}
	}
	return h.Sum64()
}

// duplicateModel is 1000 items that are copies of seven vectors, the
// catalog TestBuildIVFSameAcrossWorkers builds as "duplicate vectors".
func duplicateModel() *mf.Model {
	m := gaussianModel(1000, 6, 17)
	for i := int32(0); i < 1000; i++ {
		copy(m.ItemFactors(i), m.ItemFactors(i%7))
		m.AddBias(i, m.Bias(i%7)-m.Bias(i))
	}
	return m
}

// poisonedModel is 1000 gaussian items, four of them with a NaN or ±Inf
// coordinate or bias: TestBuildIVFSameAcrossWorkers' "non-finite rows".
func poisonedModel() *mf.Model {
	m := gaussianModel(1000, 6, 11)
	m.ItemFactors(3)[2] = math.NaN()
	m.ItemFactors(256)[0] = math.Inf(1)
	m.AddBias(700, math.Inf(-1))
	m.AddBias(999, math.NaN())
	return m
}

// TestBuildIVFPinned pins the index to recorded bits: the constants are
// the hashes of the builds made by the full-scan k-means, every sweep
// scoring every centroid, so a change to how a sweep finds a point's
// nearest centroid must leave every cell, centroid and member where it
// was. They are amd64's: elsewhere the compiler may fuse the update
// step's multiply-adds, and the centroids round differently.
func TestBuildIVFPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pinned hashes are amd64 bits, not %s's", runtime.GOARCH)
	}
	world, _ := worldModel(t, 1, 7)
	for _, c := range []struct {
		name string
		m    mf.Params
		cfg  Config
		want uint64
	}{
		{"world f64", world, Config{}, 0x6a8d55490077a565},
		{"world f32", mf.QuantizeF32(world), Config{}, 0xc60a15d11a6326ea},
		{"reseed", reseedModel(), Config{NLists: 16}, 0xa083269271d8a3a4},
		{"duplicate vectors", duplicateModel(), Config{NLists: 40}, 0x02b2b19f04e63bd5},
		{"non-finite rows", poisonedModel(), Config{}, 0xe9a2cb35874546b2},
	} {
		ix, err := BuildIVF(c.m, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := indexHash(ix); got != c.want {
			t.Errorf("%s: index hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// TestFullSweepMatchesDot pins the first sweep, assignAll with a nil
// bound — one mathx.ScanF64 per centroid over a run of points — to the
// plain loop: mathx.Dot per centroid, strict > so ties keep the lower
// cell. Every point gets the same cell and affinity bits, and the sweep
// reports a move exactly when a cell changed, for cell counts around the
// kernel's four rows a pass and points on both sides of a run boundary,
// with duplicate centroids (ties), a NaN centroid and an all-zero point.
func TestFullSweepMatchesDot(t *testing.T) {
	rng := mathx.NewRNG(77)
	const n = assignChunk + 50
	for _, k := range []int{1, 3, 4, 5, 8, 11} {
		for _, D := range []int{1, 6, 18} {
			centroids := make([]float64, k*D)
			for i := range centroids {
				centroids[i] = rng.NormFloat64()
			}
			if k > 2 {
				copy(centroids[(k-1)*D:], centroids[:D]) // last ties with first
				centroids[D] = math.NaN()
			}
			x := make([]float64, n*D)
			for i := D; i < len(x); i++ { // point 0 stays all zero
				x[i] = rng.NormFloat64()
			}
			wantC, wantA := make([]int32, n), make([]float64, n)
			for i := range n {
				wantA[i] = math.Inf(-1)
				for c := 0; c < k; c++ {
					if a := mathx.Dot(centroids[c*D:c*D+D], x[i*D:i*D+D]); a > wantA[i] {
						wantA[i], wantC[i] = a, int32(c)
					}
				}
			}
			for _, start := range [][]int32{make([]int32, n), slices.Clone(wantC)} {
				gotC, gotA := slices.Clone(start), make([]float64, n)
				moved := assignAll(centroids, x, n, D, nil, gotC, gotA)
				for i := range n {
					if gotC[i] != wantC[i] || !sameBits(gotA[i], wantA[i]) {
						t.Fatalf("k=%d D=%d point %d: sweep (%d, %v), plain loop (%d, %v)", k, D, i, gotC[i], gotA[i], wantC[i], wantA[i])
					}
				}
				if want := !slices.Equal(start, wantC); moved != want {
					t.Fatalf("k=%d D=%d: sweep reports moved = %v, want %v", k, D, moved, want)
				}
			}
		}
	}
}

// TestBoundedAssignMatchesFullScan: a sweep through the bound filter over
// the points assigns every point the cell and affinity the full scan
// does, bit for bit, and reports the same change, whatever cells the
// points start in (random ones, and their own, where nothing moves) —
// over random centroids around the filter's 16-row block and 64-bit mask
// word, with duplicates of centroid 0 (ties, which must go to the lower
// index), a zero centroid, a NaN centroid (whose query skips nothing, and
// whose cell's floor is NaN), a zero point, a NaN point and points that
// equal a centroid, over three runs of points, on one worker and on
// several.
func TestBoundedAssignMatchesFullScan(t *testing.T) {
	rng := mathx.NewRNG(39)
	const n = 2*assignChunk + 188
	for _, k := range []int{1, 2, 15, 17, 64, 65, 200} {
		for _, D := range []int{1, 6, 18} {
			centroids := make([]float64, k*D)
			for i := range centroids {
				centroids[i] = rng.NormFloat64()
			}
			if k > 2 {
				copy(centroids[(k-1)*D:], centroids[:D])
				copy(centroids[(k/2)*D:(k/2+1)*D], centroids[:D])
				clear(centroids[D : 2*D])
			}
			if k > 4 {
				centroids[(k/3)*D] = math.NaN()
			}
			x := make([]float64, n*D)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			clear(x[:D])
			for i := 1; i < n; i += 97 {
				copy(x[i*D:i*D+D], centroids[rng.Intn(k)*D:][:D])
			}
			x[5*D] = math.NaN()
			random := make([]int32, n)
			for i := range random {
				random[i] = int32(rng.Intn(k))
			}
			settled := slices.Clone(random) // where a full sweep puts every point: nothing moves
			assignAll(centroids, x, n, D, nil, settled, make([]float64, n))
			points := mathx.BoundOverF64(x, nil, D)
			for _, start := range [][]int32{random, settled} {
				for _, procs := range []int{1, 3} {
					old := runtime.GOMAXPROCS(procs)
					fullA, fullF := slices.Clone(start), make([]float64, n)
					fullMoved := assignAll(centroids, x, n, D, nil, fullA, fullF)
					boundA, boundF := slices.Clone(start), make([]float64, n)
					boundMoved := assignAll(centroids, x, n, D, points, boundA, boundF)
					runtime.GOMAXPROCS(old)
					for i := range fullA {
						if fullA[i] != boundA[i] || !sameBits(fullF[i], boundF[i]) {
							t.Fatalf("k=%d D=%d GOMAXPROCS %d point %d (from cell %d): bounded (%d, %v), full scan (%d, %v)",
								k, D, procs, i, start[i], boundA[i], boundF[i], fullA[i], fullF[i])
						}
					}
					if fullMoved != boundMoved {
						t.Fatalf("k=%d D=%d GOMAXPROCS %d: bounded sweep reports moved = %v, full scan %v", k, D, procs, boundMoved, fullMoved)
					}
				}
			}
		}
	}
}
