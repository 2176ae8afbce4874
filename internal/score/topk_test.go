package score

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/store"
)

// plantedModel is a random catalog with the rows the fused scan could get
// wrong planted in it. With biases: NaN, +Inf and -Inf scores for every
// user (one -Inf in the last tile, where the heap is long full and the
// score would merely fail the floor test if it were not counted first),
// and four identical best-scoring rows straddling the first tile boundary,
// so a k that cuts the tie must keep the smaller ids. Without biases a NaN
// factor poisons one row.
func plantedModel(seed uint64, items int, useBias bool) *mf.Model {
	return plantedModelDim(seed, items, 6, useBias)
}

func plantedModelDim(seed uint64, items, dim int, useBias bool) *mf.Model {
	m := mf.MustNew(mf.Config{NumUsers: 9, NumItems: items, Dim: dim, UseBias: useBias, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(seed), 0.1)
	if !useBias {
		m.ItemFactors(int32(items / 2))[3] = math.NaN()
		return m
	}
	for i := 0; i < items; i++ {
		m.AddBias(int32(i), 0.01*float64(i%13))
	}
	m.AddBias(0, math.Inf(-1))
	m.AddBias(int32(items/3), math.NaN())
	m.AddBias(int32(items/2), math.Inf(1))
	m.AddBias(int32(items-2), math.Inf(-1))
	if items > tileItems+2 {
		for i := tileItems - 2; i < tileItems+2; i++ {
			copy(m.ItemFactors(int32(i)), m.ItemFactors(tileItems))
			m.AddBias(int32(i), 50-m.Bias(int32(i)))
		}
	}
	return m
}

// twoPass is the reference the fused scan replaced: materialise the score
// row, then select from it.
func twoPass(scores []float64, k int, excludeSorted []int32) ([]rank.Entry, int) {
	ex := make(map[int32]bool, len(excludeSorted))
	for _, i := range excludeSorted {
		ex[i] = true
	}
	return rank.TopKDropped(scores, k, func(i int32) bool { return ex[i] })
}

// openMapped writes f as a float32 model file and opens it the way the server
// does: the float32 factors it returns are the mapped pages, whose rows
// are only 4-byte aligned.
func openMapped(t *testing.T, f *mf.Factors32) *mf.Factors32 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.f32.clapf")
	if err := store.SaveF32File(path, f, nil); err != nil {
		t.Fatal(err)
	}
	p, _, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped := p.(*mf.Factors32)
	if !mapped.Mapped() {
		t.Fatal("store.Open of a float32 file did not map it")
	}
	return mapped
}

// checkScanIsDotF32 closes the float32 contract over the catalog scan:
// every ScoreRangeFoldIn tile value — whole catalog, engine tiles, and
// tiles at odd offsets — is DotF32(user row, item row) + bias, bit for
// bit. Factors32.Score and the IVF cell loop compute exactly that per row.
func checkScanIsDotF32(t *testing.T, label string, f *mf.Factors32) {
	t.Helper()
	uRaw, vRaw, _ := f.RawParams32()
	d, n := f.Dim(), f.NumItems()
	for u := int32(0); u < int32(f.NumUsers()); u++ {
		uf := f.UserVector(u, nil)
		for _, tile := range [][2]int{{0, n}, {0, min(n, tileItems)}, {1, min(n, 4)}, {n / 3, n - 1}, {n - 1, n}, {7, 7}} {
			lo, hi := tile[0], tile[1]
			out := make([]float64, hi-lo)
			f.ScoreRangeFoldIn(uf, lo, hi, out)
			for j, got := range out {
				i := lo + j
				want := mathx.DotF32(uRaw[int(u)*d:int(u+1)*d], vRaw[i*d:(i+1)*d]) + f.Bias(int32(i))
				if !sameBits(got, want) {
					t.Fatalf("%s u=%d tile [%d,%d) item %d: scan %v (%#x), DotF32+bias %v (%#x)",
						label, u, lo, hi, i, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// sameBits is bit equality of two scores, any two NaNs counting as equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameTopK(t *testing.T, label string, got []rank.Entry, gotDropped int, want []rank.Entry, wantDropped int) {
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

// TestFusedTopKBitIdentical is the contract of the fused exact scan: for
// every parameter representation, over catalogs whose size is not a tile
// multiple, TopK, TopKFoldIn and TopKUsers return the same entries — ids
// and score bits — and the same dropped count as rank.TopKDropped over the
// materialised ScoreAll row.
func TestFusedTopKBitIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(3) // make TopKUsers fan out
	defer runtime.GOMAXPROCS(prev)

	for _, items := range []int{100, tileItems, tileItems + 1, 2*tileItems + 37} {
		for _, useBias := range []bool{true, false} {
			m := plantedModel(uint64(items), items, useBias)
			f32 := mf.QuantizeF32(m)
			reps := map[string]mf.Params{"f64": m, "f32": f32}
			for name, base := range map[string]mf.Params{"overlay-f64": m, "overlay-f32": f32} {
				ov := mf.NewOverlay(base)
				for _, u := range []int32{1, 4} {
					row := make([]float64, m.Dim())
					for q := range row {
						row[q] = 0.3 * float64(int(u)-q)
					}
					if err := ov.Set(u, row); err != nil {
						t.Fatal(err)
					}
				}
				reps[name] = ov
			}
			for name, p := range reps {
				checkFused(t, fmt.Sprintf("%s items=%d bias=%v", name, items, useBias), p)
			}
		}
	}

	// The float32 scan is a vector kernel whose lanes cover four factors:
	// a whole number of lanes (16) and a ragged tail (18), over heap and
	// mapped storage.
	for _, dim := range []int{16, 18} {
		for _, useBias := range []bool{true, false} {
			const items = 2*tileItems + 37
			f32 := mf.QuantizeF32(plantedModelDim(uint64(dim), items, dim, useBias))
			for name, f := range map[string]*mf.Factors32{"f32": f32, "f32-mapped": openMapped(t, f32)} {
				checkFused(t, fmt.Sprintf("%s dim=%d bias=%v", name, dim, useBias), f)
			}
		}
	}
}

func checkFused(t *testing.T, label string, p mf.Params) {
	t.Helper()
	n := p.NumItems()
	e := NewEngine(p)
	rng := mathx.NewRNG(uint64(n))
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	scoreable := 0
	probe := make([]float64, n)
	e.ScoreAll(0, probe)
	for _, s := range probe {
		if !math.IsNaN(s) && !math.IsInf(s, 0) {
			scoreable++
		}
	}
	excludes := map[string][]int32{
		"none":  nil,
		"empty": {},
		"all":   all,
		// The tied rows' smaller ids and a planted -Inf excluded: exclusion
		// must win over both the tie and the drop count.
		"planted": {0, int32(min(n-1, tileItems-2)), int32(n - 1)},
	}
	var sparse []int32
	for i := 0; i < n; i++ {
		if rng.Intn(7) == 0 {
			sparse = append(sparse, int32(i))
		}
	}
	excludes["sparse"] = sparse

	scores := make([]float64, n)
	var batch []TopKQuery
	var batchWant []TopKResult
	for u := int32(0); u < int32(p.NumUsers()); u++ {
		e.ScoreAll(u, scores)
		for exName, ex := range excludes {
			for _, k := range []int{0, 1, 2, 3, 10, scoreable + 5} {
				want, wantDropped := twoPass(scores, k, ex)
				at := fmt.Sprintf("%s u=%d k=%d exclude=%s", label, u, k, exName)

				got, dropped := e.TopK(u, k, ex)
				sameTopK(t, "TopK "+at, got, dropped, want, wantDropped)

				got, dropped = e.TopKFoldIn(p.UserVector(u, nil), k, ex)
				sameTopK(t, "TopKFoldIn "+at, got, dropped, want, wantDropped)

				batch = append(batch, TopKQuery{User: u, K: k, ExcludeSorted: ex})
				batchWant = append(batchWant, TopKResult{Entries: want, Dropped: wantDropped})
			}
		}
	}
	// One batch of every query above: same-user queries are adjacent, so
	// the shared-tile path runs, across share boundaries too.
	for i, res := range e.TopKUsers(batch) {
		at := fmt.Sprintf("TopKUsers %s query %d (u=%d k=%d)", label, i, batch[i].User, batch[i].K)
		sameTopK(t, at, res.Entries, res.Dropped, batchWant[i].Entries, batchWant[i].Dropped)
	}
	if got := e.TopKUsers(nil); len(got) != 0 {
		t.Fatalf("%s: empty batch returned %d results", label, len(got))
	}
}

// TestEngineBuildsItsBoundOnTheSecondSweep: an engine's first top-K scores
// every row exactly and leaves the bound unbuilt — clapf.Recommend builds an
// engine a call, and paid for the whole catalog's image on every call when
// the first sweep built it — and the second builds it. Both answers are
// the materialised row's, bit for bit.
func TestEngineBuildsItsBoundOnTheSecondSweep(t *testing.T) {
	for _, items := range []int{100, 2*tileItems + 37} {
		m := plantedModel(uint64(items), items, true)
		for name, p := range map[string]mf.Params{"f64": m, "f32": mf.QuantizeF32(m)} {
			e := NewEngine(p)
			scores := make([]float64, items)
			e.ScoreAll(2, scores)
			want, wantDropped := twoPass(scores, 10, nil)
			for sweep := 1; sweep <= 2; sweep++ {
				got, dropped := e.TopK(2, 10, nil)
				at := fmt.Sprintf("%s items=%d sweep %d", name, items, sweep)
				sameTopK(t, at, got, dropped, want, wantDropped)
				if built := e.bound != nil; built != (sweep == 2) {
					t.Errorf("%s: bound built = %v", at, built)
				}
			}
		}
	}
}

// TestScanUnderUserVectorIsScore pins a parameter set's one item scan to
// its one-pair scorer: on a *Model, a *Factors32, a mapped *Factors32 and
// an *Overlay with a planted row, ScoreRangeFoldIn(UserVector(u)) is
// Score(u, i) item by item, bit for bit — for the overlaid user, the
// base's ScoreFoldIn of the planted row. Every serve and eval path scores
// a stored user this way, so this is what they all agree with.
func TestScanUnderUserVectorIsScore(t *testing.T) {
	for _, dim := range []int{6, 16, 18} {
		for _, useBias := range []bool{true, false} {
			m := plantedModelDim(5, 300, dim, useBias)
			ov := mf.NewOverlay(m)
			row := make([]float64, dim) // 1, -2, 3, -4, …
			for q := range row {
				row[q] = float64(q+1) * float64(1-2*(q%2))
			}
			if err := ov.Set(2, row); err != nil {
				t.Fatal(err)
			}
			f32 := mf.QuantizeF32(m)
			mapped := openMapped(t, f32)
			for name, c := range map[string]struct {
				p     mf.Params
				score func(u, i int32) float64
			}{
				"f64":        {m, m.Score},
				"f32":        {f32, f32.Score},
				"f32-mapped": {mapped, mapped.Score},
				"overlay": {ov, func(u, i int32) float64 {
					if r := ov.Row(u); r != nil {
						return m.ScoreFoldIn(r, i)
					}
					return m.Score(u, i)
				}},
			} {
				p := c.p
				scan := make([]float64, p.NumItems())
				for u := int32(0); u < int32(p.NumUsers()); u++ {
					p.ScoreRangeFoldIn(p.UserVector(u, nil), 0, p.NumItems(), scan)
					for i, got := range scan {
						want := c.score(u, int32(i))
						if !sameBits(got, want) {
							t.Fatalf("%s dim=%d bias=%v u=%d item %d: scan under the user vector %v (%#x), Score %v (%#x)",
								name, dim, useBias, u, i, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
				if f, ok := p.(*mf.Factors32); ok {
					checkScanIsDotF32(t, fmt.Sprintf("%s dim=%d bias=%v", name, dim, useBias), f)
				}
			}
		}
	}
}

// TestWrongLengthUserVectorPanics: the fused scan reads rows at the query's
// stride, so a user vector that is not Dim long is refused by name — where
// the parameter set's scan used to refuse it — rather than scoring the
// wrong rows.
func TestWrongLengthUserVectorPanics(t *testing.T) {
	m := plantedModel(3, 40, true)
	for name, p := range map[string]mf.Params{"f64": m, "f32": mf.QuantizeF32(m)} {
		e := NewEngine(p)
		uf := p.UserVector(0, nil)
		for _, q := range [][]float64{uf[:5], append(append([]float64(nil), uf...), 1), nil} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if want := fmt.Sprintf("score: user vector has dim %d, want 6", len(q)); msg != want {
						t.Errorf("%s: TopKFoldIn with a %d-long vector: panic %q, want %q", name, len(q), msg, want)
					}
				}()
				e.TopKFoldIn(q, 3, nil)
			}()
		}
	}
}

// The exact-retrieval kernel at the benchmark's catalog shape: 26 744
// items × 16 factors, k = 10, ~150 excluded ids. "two-pass" is what the
// serve path did before the fused scan — allocate the row, ScoreAll, then
// rank.TopKDropped with a merge-pointer closure.
func benchExactTopK(b *testing.B, p mf.Params) {
	const k = 10
	rng := mathx.NewRNG(3)
	var exclude []int32
	for i := 0; i < p.NumItems(); i++ {
		if rng.Intn(p.NumItems()/150) == 0 {
			exclude = append(exclude, int32(i))
		}
	}
	e := NewEngine(p)
	b.Run("two-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scores := make([]float64, p.NumItems())
			e.ScoreAll(int32(i%p.NumUsers()), scores)
			idx := 0
			benchSink, _ = rank.TopKDropped(scores, k, func(it int32) bool {
				for idx < len(exclude) && exclude[idx] < it {
					idx++
				}
				return idx < len(exclude) && exclude[idx] == it
			})
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink, _ = e.TopK(int32(i%p.NumUsers()), k, exclude)
		}
	})
}

var benchSink []rank.Entry

func benchCatalog() *mf.Model {
	m := mf.MustNew(mf.Config{NumUsers: 256, NumItems: 26744, Dim: 16, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(1), 0.1)
	return m
}

func BenchmarkExactTopKF64(b *testing.B) { benchExactTopK(b, benchCatalog()) }

func BenchmarkExactTopKF32(b *testing.B) { benchExactTopK(b, mf.QuantizeF32(benchCatalog())) }
