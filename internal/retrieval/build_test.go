package retrieval

import (
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/store"
)

// buildAt builds the index with GOMAXPROCS set to procs for the build's
// duration: kmeans sizes its assignment fan-out from it.
func buildAt(tb testing.TB, procs int, m mf.Params, cfg Config) *Index {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	ix, err := BuildIVF(m, cfg)
	if err != nil {
		tb.Fatalf("BuildIVF at GOMAXPROCS %d: %v", procs, err)
	}
	return ix
}

// indexDiff names the first field in which two indexes differ by bits, ""
// when every centroid, offset, id, packed row and bias agrees.
func indexDiff(a, b *Index) string {
	switch {
	case a.dim != b.dim || a.nlist != b.nlist || a.nprobe != b.nprobe || a.numItems != b.numItems ||
		a.nonFinite != b.nonFinite || !sameBits(a.maxNorm, b.maxNorm):
		return "header"
	case !slices.EqualFunc(a.probeVecs, b.probeVecs, sameBits):
		return "probeVecs"
	case !slices.EqualFunc(a.probeBias, b.probeBias, sameBits):
		return "probeBias"
	case !slices.Equal(a.offsets, b.offsets):
		return "offsets"
	case !slices.Equal(a.ids, b.ids):
		return "ids"
	case !slices.EqualFunc(a.rows.V64, b.rows.V64, sameBits) || !slices.EqualFunc(a.rows.V32, b.rows.V32, sameBits32):
		return "vecs"
	case !slices.EqualFunc(a.rows.B64, b.rows.B64, sameBits) || !slices.EqualFunc(a.rows.B32, b.rows.B32, sameBits32):
		return "bias"
	}
	return ""
}

func sameBits32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

func gaussianModel(n, d int, seed uint64) *mf.Model {
	m := mf.MustNew(mf.Config{NumUsers: 2, NumItems: n, Dim: d, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(seed), 0.1)
	return m
}

// reseedModel is a catalog whose first sweep must leave cells empty: all
// but 25 of its items are copies of three vectors, so the seeded initial
// centroids hold duplicates, ties send every copy to the lowest of them,
// and the rest are reseeded from the worst-served points — the scattered
// 25, ranked by the affinities the sweep workers wrote.
func reseedModel() *mf.Model {
	m := gaussianModel(900, 5, 41)
	for i := int32(0); i < 900; i++ {
		if i%37 != 0 {
			copy(m.ItemFactors(i), m.ItemFactors(37*(i%3)))
			m.AddBias(i, m.Bias(37*(i%3))-m.Bias(i))
		}
	}
	return m
}

// TestReseedModelReseeds keeps reseedModel honest: its first update step
// meets empty cells.
func TestReseedModelReseeds(t *testing.T) {
	m := reseedModel()
	aug, _, _ := augmentItems(m)
	n, D := m.NumItems(), m.Dim()+2
	_, assign := kmeans(aug, n, D, 16, 1, mathx.NewRNG(1))
	used := make(map[int32]bool)
	for _, c := range assign {
		used[c] = true
	}
	if len(used) == 16 {
		t.Fatal("every cell has a member after the first sweep: the reseed path is not exercised")
	}
}

// TestBuildIVFSameAcrossWorkers: the index is the same bits whatever the
// number of cores the assignment sweep was fanned over — one worker (the
// serial loop), two, and seven (more workers than most of these catalogs
// have 256-point chunks). Catalog sizes sit on both sides of the chunk
// boundary; the degenerate inputs are the ones BuildIVF promises to
// handle, plus the empty-cell reseed, whose choice of point reads the
// affinities the workers wrote.
func TestBuildIVFSameAcrossWorkers(t *testing.T) {
	type tc struct {
		name string
		m    mf.Params
		cfg  Config
	}
	world, _ := worldModel(t, 1, 7)
	cases := []tc{
		{"world f64", world, Config{}},
		{"world f32", mf.QuantizeF32(world), Config{}},
		{"nlists over items", gaussianModel(300, 4, 5), Config{NLists: 1000}},
		{"reseed", reseedModel(), Config{NLists: 16}},
	}
	for _, n := range []int{1, 255, 256, 257, 1000} {
		cases = append(cases, tc{"gaussian", gaussianModel(n, 6, uint64(n)), Config{}})
	}
	poisoned := gaussianModel(1000, 6, 11)
	poisoned.ItemFactors(3)[2] = math.NaN()
	poisoned.ItemFactors(256)[0] = math.Inf(1)
	poisoned.AddBias(700, math.Inf(-1))
	poisoned.AddBias(999, math.NaN())
	cases = append(cases, tc{"non-finite rows", poisoned, Config{}})
	zeros := gaussianModel(1000, 6, 13)
	for i := int32(0); i < 1000; i += 3 {
		clear(zeros.ItemFactors(i))
		zeros.AddBias(i, -zeros.Bias(i))
	}
	cases = append(cases, tc{"zero-norm rows", zeros, Config{}},
		tc{"all zero", mf.MustNew(mf.Config{NumUsers: 2, NumItems: 600, Dim: 3, UseBias: true}), Config{NLists: 9}})
	dups := gaussianModel(1000, 6, 17)
	for i := int32(0); i < 1000; i++ {
		copy(dups.ItemFactors(i), dups.ItemFactors(i%7))
		dups.AddBias(i, dups.Bias(i%7)-dups.Bias(i))
	}
	cases = append(cases, tc{"duplicate vectors", dups, Config{NLists: 40}})

	for _, c := range cases {
		serial := buildAt(t, 1, c.m, c.cfg)
		for _, procs := range []int{2, 7} {
			if d := indexDiff(serial, buildAt(t, procs, c.m, c.cfg)); d != "" {
				t.Errorf("%s (%d items): %s differs between GOMAXPROCS 1 and %d",
					c.name, c.m.NumItems(), d, procs)
			}
		}
	}
}

// TestIndexesMatchesOnlyItsOwnItems: Indexes is true exactly for parameter
// sets whose item half — representation, shape, every row and bias by
// bits — is the one the index packed, whatever their user half and
// wherever they live (heap or file mapping).
func TestIndexesMatchesOnlyItsOwnItems(t *testing.T) {
	m := gaussianModel(300, 6, 3)
	m.ItemFactors(7)[1] = math.NaN()
	m.ItemFactors(8)[0] = 0
	q := mf.QuantizeF32(m)
	ix64, ix32 := buildAt(t, 1, m, Config{NLists: 9}), buildAt(t, 1, q, Config{NLists: 9})

	path := filepath.Join(t.TempDir(), "m.f32.clapf")
	if err := store.Export(path, q, nil); err != nil {
		t.Fatal(err)
	}
	opened, _, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := opened.(*mf.Factors32); !ok || !f.Mapped() {
		t.Fatalf("store.Open of a float32 file returned %T, want a mapped *mf.Factors32", opened)
	}

	edit := func(f func(c *mf.Model)) *mf.Model {
		c := m.Clone()
		f(c)
		return c
	}
	nextUp := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	wideBias := make([]float64, 300)
	for i := range wideBias {
		wideBias[i] = q.Bias(int32(i))
	}
	wide, err := mf.FromRaw(m.Config(), make([]float64, 2*6), widen(q, 300, 6), wideBias)
	if err != nil {
		t.Fatal(err)
	}
	nobias := mf.MustNew(mf.Config{NumUsers: 2, NumItems: 300, Dim: 6})
	nobias.InitGaussian(mathx.NewRNG(5), 0.1)
	qnobias := mf.QuantizeF32(nobias)
	ixNobias := buildAt(t, 1, qnobias, Config{NLists: 9})

	for _, c := range []struct {
		name string
		ix   *Index
		m    mf.Params
		want bool
	}{
		{"f64: its own model", ix64, m, true},
		{"f64: a clone (NaN row equal by bits)", ix64, m.Clone(), true},
		{"f64: new user rows only", ix64, edit(func(c *mf.Model) { c.UserFactors(1)[0] += 1 }), true},
		{"f64: one coordinate one ulp up", ix64, edit(func(c *mf.Model) { v := c.ItemFactors(299); v[5] = nextUp(v[5]) }), false},
		{"f64: one bias changed", ix64, edit(func(c *mf.Model) { c.AddBias(0, 1e-9) }), false},
		{"f64: 0 became -0", ix64, edit(func(c *mf.Model) { c.ItemFactors(8)[0] = math.Copysign(0, -1) }), false},
		{"f64: another NaN payload", ix64, edit(func(c *mf.Model) {
			c.ItemFactors(7)[1] = math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
		}), false},
		{"f64: fewer items", ix64, gaussianModel(299, 6, 3), false},
		{"f64: another dim", ix64, gaussianModel(300, 5, 3), false},
		{"f64 index, f32 params", ix64, q, false},
		{"f32 index, its values widened to f64", ix32, wide, false},
		{"f32: its own factors", ix32, q, true},
		{"f32: a second quantization", ix32, mf.QuantizeF32(m), true},
		{"f32: the same values mapped from a file", ix32, opened, true},
		{"f32: one bias changed", ix32, mf.QuantizeF32(edit(func(c *mf.Model) { c.AddBias(4, 1) })), false},
		{"f32: one coordinate changed", ix32, mf.QuantizeF32(edit(func(c *mf.Model) { c.ItemFactors(4)[0] += 1 })), false},
		{"f32: fewer items", ix32, mf.QuantizeF32(gaussianModel(299, 6, 3)), false},
		{"f32 without a bias: its own factors", ixNobias, mf.QuantizeF32(nobias), true},
		{"f32 without a bias, params with one", ixNobias, q, false},
		{"nil params", ix64, nil, false},
	} {
		if got := c.ix.Indexes(c.m); got != c.want {
			t.Errorf("%s: Indexes = %v, want %v", c.name, got, c.want)
		}
	}
	if mapped := buildAt(t, 1, opened, Config{NLists: 9}); !mapped.Indexes(q) || indexDiff(mapped, ix32) != "" {
		t.Error("an index built from the mapped file differs from one built from the heap copy")
	}
}

// widen returns f's item rows as float64.
func widen(f *mf.Factors32, n, d int) []float64 {
	out := make([]float64, 0, n*d)
	var buf []float64
	for i := 0; i < n; i++ {
		buf = f.ItemVector(int32(i), buf)
		out = append(out, buf...)
	}
	return out
}

// BenchmarkBuildIVF is the whole index build at the benchmark's catalog
// shape; run with -cpu 1,2 to read the assignment fan-out.
func BenchmarkBuildIVF(b *testing.B) {
	m, _ := benchCatalog()
	for name, p := range map[string]mf.Params{"f64": m, "f32": mf.QuantizeF32(m)} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildIVF(p, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
