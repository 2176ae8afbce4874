package retrieval

import (
	"fmt"
	"math"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/score"
)

// TestSearchCellsMatchesTwoPass pins SearchCells, now on the shared
// rank.Selector, to the two-pass reference at full probe width — entries
// (ids and score bits) and dropped count — over the rows a selection loop
// gets wrong: NaN, +Inf and -Inf scores (one -Inf late in id order, when
// the heap is full and it would merely fail the floor test if it were not
// counted first), four identical best-scoring rows whose tie a small k
// cuts (smaller ids stay), every item excluded, k beyond the scoreable
// items, k = 1 and an empty exclusion list; float64 and float32 rows. The
// fused exact scan must agree with both.
func TestSearchCellsMatchesTwoPass(t *testing.T) {
	const items = 700
	m := mf.MustNew(mf.Config{NumUsers: 7, NumItems: items, Dim: 6, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(23), 0.1)
	for i := 0; i < items; i++ {
		m.AddBias(int32(i), 0.01*float64(i%13))
	}
	m.AddBias(0, math.Inf(-1))
	m.AddBias(233, math.NaN())
	m.AddBias(350, math.Inf(1))
	m.AddBias(items-2, math.Inf(-1))
	for i := int32(510); i < 514; i++ {
		copy(m.ItemFactors(i), m.ItemFactors(512))
		m.AddBias(i, 50-m.Bias(i))
	}
	all := make([]int32, items)
	for i := range all {
		all[i] = int32(i)
	}
	excludes := map[string][]int32{
		"none": nil, "empty": {}, "all": all,
		"planted": {0, 510, 511, items - 1},
		"sparse":  {3, 97, 98, 99, 211, 512, 640},
	}

	for name, p := range map[string]mf.Params{"f64": m, "f32": mf.QuantizeF32(m)} {
		eng := score.NewEngine(p)
		scores := make([]float64, items)
		for _, nlist := range []int{1, 13} {
			ix, err := BuildIVF(p, Config{NLists: nlist})
			if err != nil {
				t.Fatal(err)
			}
			for u := int32(0); u < int32(p.NumUsers()); u++ {
				p.ScoreAll(u, scores)
				uf := p.UserVector(u, nil)
				cells := ix.ProbeCells(uf, ix.NLists())
				for exName, ex := range excludes {
					in := make(map[int32]bool, len(ex))
					for _, i := range ex {
						in[i] = true
					}
					for _, k := range []int{0, 1, 2, 3, 10, items} {
						at := fmt.Sprintf("%s nlist=%d u=%d k=%d exclude=%s", name, nlist, u, k, exName)
						want, wantDropped := rank.TopKDropped(scores, k, func(i int32) bool { return in[i] })
						got, dropped := ix.SearchCells(uf, cells, k, ex)
						sameEntries(t, "SearchCells "+at, got, dropped, want, wantDropped)
						got, dropped = eng.TopK(u, k, ex)
						sameEntries(t, "Engine.TopK "+at, got, dropped, want, wantDropped)
					}
				}
			}
		}
	}
}

func sameEntries(t *testing.T, label string, got []rank.Entry, gotDropped int, want []rank.Entry, wantDropped int) {
	t.Helper()
	if gotDropped != wantDropped {
		t.Fatalf("%s: dropped %d, want %d", label, gotDropped, wantDropped)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Item != want[i].Item || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: entry %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// BenchmarkSearchCells is the IVF re-rank at the benchmark's catalog shape
// and default pruning (26 744 items × 16 factors, 328 cells, 82 probed),
// k = 10, ~150 excluded ids — the loop that shares its selector with the
// exact scan.
func BenchmarkSearchCells(b *testing.B) {
	m := mf.MustNew(mf.Config{NumUsers: 256, NumItems: 26744, Dim: 16, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(1), 0.1)
	rng := mathx.NewRNG(3)
	var exclude []int32
	for i := 0; i < m.NumItems(); i++ {
		if rng.Intn(m.NumItems()/150) == 0 {
			exclude = append(exclude, int32(i))
		}
	}
	for name, p := range map[string]mf.Params{"f64": m, "f32": mf.QuantizeF32(m)} {
		ix, err := BuildIVF(p, Config{})
		if err != nil {
			b.Fatal(err)
		}
		ufs, cells := make([][]float64, p.NumUsers()), make([][]int32, p.NumUsers())
		for u := range cells {
			ufs[u] = p.UserVector(int32(u), nil)
			cells[u] = ix.ProbeCells(ufs[u], 0)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u := i % len(cells)
				searchSink, _ = ix.SearchCells(ufs[u], cells[u], 10, exclude)
			}
		})
	}
}

var searchSink []rank.Entry

// TestNearestMatchesDot pins the k-means assignment kernel, which takes
// four centroids per pass, to the plain loop it replaced: mathx.Dot per
// centroid, strict > so ties keep the lower cell — same cell, same
// affinity bits — for cell counts around the blocking factor, with
// duplicate centroids (ties), a NaN centroid and an all-zero row.
func TestNearestMatchesDot(t *testing.T) {
	rng := mathx.NewRNG(77)
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
			for trial := 0; trial < 50; trial++ {
				xi := make([]float64, D)
				if trial > 0 {
					for j := range xi {
						xi[j] = rng.NormFloat64()
					}
				}
				wantC, wantA := int32(0), math.Inf(-1)
				for c := 0; c < k; c++ {
					if a := mathx.Dot(centroids[c*D:c*D+D], xi); a > wantA {
						wantA, wantC = a, int32(c)
					}
				}
				gotC, gotA := nearest(centroids, k, xi)
				if gotC != wantC || math.Float64bits(gotA) != math.Float64bits(wantA) {
					t.Fatalf("k=%d D=%d trial %d: nearest = (%d, %v), plain loop (%d, %v)", k, D, trial, gotC, gotA, wantC, wantA)
				}
			}
		}
	}
}
