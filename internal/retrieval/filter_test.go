package retrieval

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/score"
	"clapf/internal/store"
)

// filterModel is a catalog built to make the bound filter's float32 scores
// disagree with the exact ones where it matters. Four copies of one row,
// in different tiles and (usually) cells, and one item in nine with a twin
// eleven ids earlier, tie exactly under every query, so a k that cuts a
// tie puts it on the floor. With d >= 2, every fifth row is (M, -(M+δ), …)
// with M up to 2^20 and δ below float32's resolution at M: under a query
// whose first two coordinates are equal the exact scores of those rows
// cancel to their small remainder, δ included, and the bound scan's lose
// δ — so the approximate order among them is not the exact one, and E,
// driven by their norm, is wide. Items are never a multiple of eight.
func filterModel(seed uint64, d int, useBias bool) *mf.Model {
	items := 8*(64+d%16) + 5 // two bound tiles, never a whole number of passes
	m := mf.MustNew(mf.Config{NumUsers: 3, NumItems: items, Dim: d, UseBias: useBias, InitStd: 0.1})
	rng := mathx.NewRNG(seed)
	m.InitGaussian(rng, 0.3)
	if useBias {
		for i := 0; i < items; i++ {
			m.AddBias(int32(i), 0.1*rng.NormFloat64())
		}
	}
	if d >= 2 {
		for i := 3; i < items; i += 5 {
			v := m.ItemFactors(int32(i))
			big := math.Ldexp(1+rng.Float64(), 10+i%11)
			v[0], v[1] = big, -(big + 1e-3*rng.NormFloat64())
		}
	}
	_, _, bias := m.RawParams()
	twin := func(i, of int) {
		copy(m.ItemFactors(int32(i)), m.ItemFactors(int32(of)))
		if bias != nil {
			bias[i] = bias[of]
		}
	}
	for _, i := range []int{17, 515, items - 40, items - 1} {
		twin(i, 7)
	}
	for i := 20; i < items-40; i += 9 {
		twin(i, i-11) // pairs all down the ranking: one of them is near the top
	}
	return m
}

// filterQueries are the vectors a miss can rank under, beside the stored
// rows: gaussian; the cancelling direction (equal first coordinates);
// scaled past float32's range, into its subnormals and below them, with
// one coordinate out of range; and a NaN, a +Inf and a -Inf coordinate.
func filterQueries(rng *mathx.RNG, d int) map[string][]float64 {
	gauss := func(scale float64) []float64 {
		u := make([]float64, d)
		for k := range u {
			u[k] = scale * rng.NormFloat64()
		}
		return u
	}
	qs := map[string][]float64{
		"gaussian": gauss(1), "beyond-f32": gauss(1e39), "f32-subnormal": gauss(1e-40),
		"below-f32": gauss(1e-47),
	}
	cancel := gauss(0.1)
	cancel[0] = 1
	if d >= 2 {
		cancel[1] = 1
	}
	qs["cancel"] = cancel
	one := gauss(1)
	one[d/2] = 3e38 * 10
	qs["one-beyond-f32"] = one
	for name, x := range map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)} {
		u := gauss(1)
		u[d-1] = x
		qs[name] = u
	}
	return qs
}

// exactRow is the unfiltered reference: the parameter set's one item scan
// over the whole catalog.
func exactRow(p mf.Params, uf []float64) []float64 {
	row := make([]float64, p.NumItems())
	p.ScoreRangeFoldIn(uf, 0, p.NumItems(), row)
	return row
}

// referenceTopK selects from the exact scores of the candidates (nil for
// every item) outside ex, with nothing skipped: the answer the filter must
// reproduce.
func referenceTopK(scores []float64, candidates, ex []int32, k int) ([]rank.Entry, int) {
	in := make([]bool, len(scores))
	if candidates == nil {
		for i := range in {
			in[i] = true
		}
	}
	for _, i := range candidates {
		in[i] = true
	}
	for _, i := range ex {
		in[i] = false
	}
	return rank.TopKDropped(scores, k, func(i int32) bool { return !in[i] })
}

// tieCut returns a k that cuts the first exact tie of the ranking's top
// 64 — the floor then holds that score, a tied item is pushed against it
// and the smaller id must stay — or 0 when there is none.
func tieCut(scores []float64, ex []int32) int {
	full, _ := referenceTopK(scores, nil, ex, 64)
	for p := 0; p+1 < len(full); p++ {
		if full[p].Score == full[p+1].Score {
			return p + 1
		}
	}
	return 0
}

func filterKs(scores []float64, ex []int32) []int {
	ks := []int{1, 3, 10}
	if k := tieCut(scores, ex); k > 0 {
		ks = append(ks, k)
	}
	return ks
}

// filterExcludes: none, and a scattered third of the catalog that takes
// one copy of the tied row.
func filterExcludes(n int) map[string][]int32 {
	var third []int32
	for i := 1; i < n; i += 3 {
		third = append(third, int32(i))
	}
	return map[string][]int32{"none": nil, "third": third}
}

// TestBoundFilterKeepsTheExactAnswer: the fused exact scan and the IVF
// re-rank skip every row whose float32 bound score cannot reach the floor,
// and must still return what scoring every row exactly returns — entries
// by Float64bits and the dropped count — for TopKFoldIn and SearchCells
// at full and at pruned probe width; over float64, float32, mapped
// float32 (d ≡ 5 mod 11) and overlaid (d ≡ 0 mod 3) bases, with and
// without biases, for every d in 1..67, under the cancelling, out-of-range
// and non-finite queries of filterQueries and every stored user, at
// k = 1, 3, 10 and a k that puts an exact tie on the floor.
func TestBoundFilterKeepsTheExactAnswer(t *testing.T) {
	dir := t.TempDir()
	for d := 1; d <= 67; d++ {
		for _, useBias := range []bool{true, false} {
			m := filterModel(uint64(d), d, useBias)
			f32 := mf.QuantizeF32(m)
			reps := map[string]mf.Params{"f64": m, "f32": f32}
			if d%11 == 5 {
				path := filepath.Join(dir, fmt.Sprintf("d%d-%v.clapf", d, useBias))
				if err := store.SaveF32File(path, f32, nil); err != nil {
					t.Fatal(err)
				}
				p, _, err := store.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				reps["f32-mapped"] = p
			}
			for name, base := range map[string]mf.Params{"overlay-f64": m, "overlay-f32": f32} {
				if d%3 != 0 {
					break
				}
				ov := mf.NewOverlay(base)
				row := make([]float64, d)
				for q := range row {
					row[q] = 0.5 * float64(q%3-1)
				}
				row[0] = 1
				if d >= 2 {
					row[1] = 1 // the cancelling direction
				}
				if err := ov.Set(2, row); err != nil {
					t.Fatal(err)
				}
				reps[name] = ov
			}
			for name, p := range reps {
				checkFilter(t, fmt.Sprintf("%s d=%d bias=%v", name, d, useBias), p)
			}
		}
	}
}

func checkFilter(t *testing.T, label string, p mf.Params) {
	t.Helper()
	n, d := p.NumItems(), p.Dim()
	eng := score.NewEngine(p)
	excludes := filterExcludes(n)
	queries := filterQueries(mathx.NewRNG(uint64(n)), d)
	for u := int32(0); int(u) < p.NumUsers(); u++ {
		queries[fmt.Sprintf("user %d", u)] = p.UserVector(u, nil)
	}

	// TopKFoldIn under every vector, and SearchCells below, at the ks
	// worked out once per query and exclusion list.
	type check struct {
		uf     []float64
		scores []float64
		ks     map[string][]int
	}
	checks := make(map[string]check, len(queries))
	for qName, uf := range queries {
		c := check{uf: uf, scores: exactRow(p, uf), ks: make(map[string][]int)}
		for exName, ex := range excludes {
			c.ks[exName] = filterKs(c.scores, ex)
			for _, k := range c.ks[exName] {
				at := fmt.Sprintf("%s query=%s exclude=%s k=%d", label, qName, exName, k)
				want, wantDropped := referenceTopK(c.scores, nil, ex, k)
				got, dropped := eng.TopKFoldIn(uf, k, ex)
				sameEntries(t, "TopKFoldIn "+at, got, dropped, want, wantDropped)
			}
		}
		checks[qName] = c
	}

	// The IVF re-rank, over the cells a probe picks and over all of them.
	if _, isOverlay := p.(*mf.Overlay); isOverlay {
		return // the serve path indexes the base, never the overlay
	}
	ix, err := BuildIVF(p, Config{NLists: 7, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	for qName, c := range checks {
		for _, nprobe := range []int{2, ix.NLists()} {
			cells := ix.ProbeCells(c.uf, nprobe)
			candidates := ix.Probe(c.uf, nprobe)
			for exName, ex := range excludes {
				for _, k := range c.ks[exName] {
					at := fmt.Sprintf("%s query=%s nprobe=%d exclude=%s k=%d", label, qName, nprobe, exName, k)
					want, wantDropped := referenceTopK(c.scores, candidates, ex, k)
					got, dropped := ix.SearchCells(c.uf, cells, k, ex)
					sameEntries(t, "SearchCells "+at, got, dropped, want, wantDropped)
				}
			}
		}
	}
}
