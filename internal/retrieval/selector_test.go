package retrieval

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/score"
	"clapf/internal/served"
)

// TestSearchCellsMatchesTwoPass pins SearchCells, now on the shared
// rank.Selector, to the two-pass reference at full probe width — entries
// (ids and score bits) and dropped count — over the rows a selection loop
// gets wrong: NaN, +Inf and -Inf scores (one -Inf late in id order, when
// the heap is full and it would merely fail the floor test if it were not
// counted first), four identical best-scoring rows whose tie a small k
// cuts (smaller ids stay), every item excluded, ~150 scattered excluded
// ids (a user's positives: the list SearchCells searches instead of
// merging), k beyond the scoreable items, k = 1 and an empty exclusion
// list; float64 and float32 rows; one cell of all 700 items — two score
// tiles — and thirteen small ones. The fused exact scan must agree with
// both.
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
	var scattered []int32 // ~150 ids, among them NaN row 233 but not the -Inf rows
	for i, rng := int32(1), mathx.NewRNG(29); i < items-2; i++ {
		if i == 233 || rng.Intn(5) == 0 {
			scattered = append(scattered, i)
		}
	}
	excludes := map[string][]int32{
		"none": nil, "empty": {}, "all": all,
		"planted":   {0, 510, 511, items - 1},
		"sparse":    {3, 97, 98, 99, 211, 512, 640},
		"scattered": scattered,
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
				eng.ScoreAll(u, scores)
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

// benchCatalog is the benchmark's catalog shape (26 744 items × 16
// factors; 328 cells, 82 probed at the default pruning) and ~150 excluded
// ids scattered over it.
func benchCatalog() (m *mf.Model, exclude []int32) {
	m = mf.MustNew(mf.Config{NumUsers: 256, NumItems: 26744, Dim: 16, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(1), 0.1)
	rng := mathx.NewRNG(3)
	for i := 0; i < m.NumItems(); i++ {
		if rng.Intn(m.NumItems()/150) == 0 {
			exclude = append(exclude, int32(i))
		}
	}
	return m, exclude
}

// BenchmarkSearchCells is the IVF re-rank at the benchmark's shape, k = 10
// — the loop that shares its kernels and its selector with the exact scan.
// served is the float64 re-rank the benchmark's IVF shard runs, over the
// catalog it serves, every user in turn with their own exclusions at the
// default probe width, and reports the members the bound filter let
// through a query (survivors/query).
func BenchmarkSearchCells(b *testing.B) {
	m, exclude := benchCatalog()
	for _, name := range []string{"f64", "f32"} {
		p := mf.Params(m)
		if name == "f32" {
			p = mf.QuantizeF32(m)
		}
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
	b.Run("served", func(b *testing.B) {
		m, positives := served.Catalog()
		ix, err := BuildIVF(m, Config{})
		if err != nil {
			b.Fatal(err)
		}
		cells := make([][]int32, m.NumUsers())
		for u := range cells {
			cells[u] = ix.ProbeCells(m.UserVector(int32(u), nil), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := i % len(cells)
			searchSink, _ = ix.SearchCells(m.UserVector(int32(u), nil), cells[u], 10, positives[u])
		}
		b.StopTimer()
		survivors := 0
		for u := range cells {
			survivors += cellSurvivors(ix, m.UserVector(int32(u), nil), cells[u], 10, positives[u])
		}
		b.ReportMetric(float64(survivors)/float64(len(cells)), "survivors/query")
	})
}

// tileItems is mf.Sweep's tile: the longest span of a cell one bound scan
// covers.
const tileItems = mf.SweepTile

// cellSurvivors is how many members SearchCells rescores for one query:
// once the selector is full, the mask bits Bound.Scan sets for a span of a
// cell against the floor as the span starts. Offering every member leaves
// the selector as SearchCells leaves it, since the members the mask clears
// score below that floor.
func cellSurvivors(ix *Index, uf []float64, cells []int32, k int, exclude []int32) (n int) {
	var q mathx.Query
	ix.bound.Query(uf, &q)
	sel := rank.NewSelector(k, exclude)
	var tile [tileItems]float64
	var mask [tileItems/64 + 2]uint64
	for _, c := range cells {
		for lo, end := int(ix.offsets[c]), int(ix.offsets[c+1]); lo < end; lo += tileItems {
			hi := min(lo+tileItems, end)
			if floor := sel.Floor(); !math.IsInf(floor, -1) {
				for _, w := range ix.bound.Scan(&q, floor-q.Tol(), lo, hi, mask[:]) {
					n += bits.OnesCount64(w)
				}
			}
			ix.rows.Scan(uf, lo, hi, tile[:hi-lo])
			sel.OfferIDs(ix.ids[lo:hi], tile[:hi-lo])
		}
	}
	return n
}

var searchSink []rank.Entry

// BenchmarkProbeCells is the other half of a miss: 328 centroid
// affinities and the 82 best cells.
func BenchmarkProbeCells(b *testing.B) {
	m, _ := benchCatalog()
	ix, err := BuildIVF(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ufs := make([][]float64, m.NumUsers())
	for u := range ufs {
		ufs[u] = m.UserVector(int32(u), nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeSink = ix.ProbeCells(ufs[i%len(ufs)], 0)
	}
}

var probeSink []int32

// TestMissAllocatesOnlyItsResults pins what an IVF miss leaves for the
// collector at the benchmark's shape: ProbeCells the cell list it returns
// (its affinity scratch is on the stack), SearchCells the selector's k
// entries, 160 B, and nothing else — the final sort is slices.SortFunc
// over them in place, where sort.Slice boxed the slice and allocated a
// swapper and a closure (4 allocations and 248 B).
func TestMissAllocatesOnlyItsResults(t *testing.T) {
	m, exclude := benchCatalog()
	ix, err := BuildIVF(m, Config{Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	uf := m.UserVector(5, nil)
	cells := ix.ProbeCells(uf, 0)
	if n := testing.AllocsPerRun(50, func() { probeSink = ix.ProbeCells(uf, 0) }); n > 1 {
		t.Errorf("ProbeCells: %v allocations a call, want the returned cell list alone", n)
	}
	if n := testing.AllocsPerRun(50, func() { searchSink, _ = ix.SearchCells(uf, cells, 10, exclude) }); n > 1 {
		t.Errorf("SearchCells: %v allocations a call, want the returned entries alone", n)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		searchSink, _ = ix.SearchCells(uf, ix.ProbeCells(uf, 0), 10, exclude)
	}
	runtime.ReadMemStats(&after)
	if perMiss := float64(after.TotalAlloc-before.TotalAlloc) / runs; perMiss > 1904+160 {
		t.Errorf("a miss allocates %.0f B, more than the %d B of the heap-and-two-sorts probe and the selector's entries", perMiss, 1904+160)
	}
}

// TestProbeCellsMatchesFullSort holds ProbeCells' threshold selection to
// the obvious definition — sort every cell by (affinity descending, cell
// ascending), NaN as -Inf, cut at nprobe, return in that order — over an index
// whose centroids repeat (ties sitting on the threshold, which only the
// lower cells may pass), a zero centroid, every probe width, and NaN and
// Inf queries, where nprobe == nlist must still return every cell; with
// the scratch on the stack and, past 512 cells, on the heap.
func TestProbeCellsMatchesFullSort(t *testing.T) {
	for _, nlist := range []int{23, 515} { // scratch on the stack, and beyond it
		probeCellsMatchFullSort(t, nlist)
	}
}

func probeCellsMatchFullSort(t *testing.T, nlist int) {
	const d = 5
	rng := mathx.NewRNG(57)
	ix := &Index{dim: d, nlist: nlist, nprobe: 6, probeVecs: make([]float64, nlist*d), probeBias: make([]float64, nlist)}
	for c := 0; c < nlist; c++ {
		src := c % 7 // cells c, c+7, c+14, ... share a centroid
		if c < 7 {
			for j := 0; j < d; j++ {
				ix.probeVecs[c*d+j] = rng.NormFloat64()
			}
			ix.probeBias[c] = rng.NormFloat64()
		}
		copy(ix.probeVecs[c*d:c*d+d], ix.probeVecs[src*d:src*d+d])
		ix.probeBias[c] = ix.probeBias[src]
	}
	for j := 0; j < d; j++ {
		ix.probeVecs[3*d+j] = 0 // a quarantine cell: affinity = its bias, or NaN under an Inf query
	}
	queries := [][]float64{make([]float64, d)}
	for q := 0; q < 20; q++ {
		uf := make([]float64, d)
		for j := range uf {
			uf[j] = rng.NormFloat64()
		}
		queries = append(queries, uf)
	}
	queries = append(queries,
		[]float64{math.NaN(), 0, 0, 0, 0},
		[]float64{1, math.Inf(1), 0, 0, 0},
		[]float64{0, 0, math.Inf(-1), 1, math.NaN()})
	for qi, uf := range queries {
		aff := make([]float64, nlist)
		for c := range aff {
			aff[c] = mathx.Dot(uf, ix.probeVecs[c*d:c*d+d]) + ix.probeBias[c]
			if math.IsNaN(aff[c]) {
				aff[c] = math.Inf(-1)
			}
		}
		order := make([]int32, nlist)
		for c := range order {
			order[c] = int32(c)
		}
		sort.SliceStable(order, func(a, b int) bool { return aff[order[a]] > aff[order[b]] })
		for nprobe := -1; nprobe <= nlist+1; nprobe++ {
			width := nprobe
			if nprobe <= 0 {
				width = ix.nprobe
			}
			want := order[:min(width, nlist)]
			if got := ix.ProbeCells(uf, nprobe); !slices.Equal(got, want) {
				t.Fatalf("query %d %v, nprobe %d: cells %v, full sort %v (affinities %v)", qi, uf, nprobe, got, want, aff)
			}
		}
	}
}

// TestWrongLengthQueryPanics: ProbeCells and SearchCells (cold start and
// batch reach the index through these two) refuse a query that is not dim
// long by name, where mathx.Dot once scored its prefix.
func TestWrongLengthQueryPanics(t *testing.T) {
	m := mf.MustNew(mf.Config{NumUsers: 2, NumItems: 40, Dim: 6, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(5), 0.1)
	for name, p := range map[string]mf.Params{"f64": m, "f32": mf.QuantizeF32(m)} {
		ix, err := BuildIVF(p, Config{NLists: 4})
		if err != nil {
			t.Fatal(err)
		}
		uf := p.UserVector(0, nil)
		cells := ix.ProbeCells(uf, 0)
		for call, f := range map[string]func(q []float64){
			"ProbeCells":  func(q []float64) { ix.ProbeCells(q, 0) },
			"SearchCells": func(q []float64) { ix.SearchCells(q, cells, 3, nil) },
			"Search":      func(q []float64) { ix.Search(q, 3, 0, nil) },
		} {
			for _, q := range [][]float64{uf[:5], append(slices.Clone(uf), 1), nil} {
				func() {
					defer func() {
						msg, _ := recover().(string)
						if want := fmt.Sprintf("retrieval: query has dim %d, want 6", len(q)); msg != want {
							t.Errorf("%s %s with a %d-long query: panic %q, want %q", name, call, len(q), msg, want)
						}
					}()
					f(q)
				}()
			}
		}
	}
}
