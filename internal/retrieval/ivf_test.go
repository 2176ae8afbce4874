package retrieval

import (
	"math"
	"testing"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/score"
)

// worldModel builds a model from a seeded datagen world's ground-truth
// factors plus a popularity-derived bias — realistic low-rank structure
// without paying for training. Tests measuring recall against exact
// retrieval all share it, so calibrated recall floors are reproducible.
func worldModel(tb testing.TB, scale float64, seed uint64) (*mf.Model, *datagen.World) {
	tb.Helper()
	prof, err := datagen.ProfileByName("ML100K")
	if err != nil {
		tb.Fatalf("ProfileByName: %v", err)
	}
	p := prof.Scaled(scale)
	w, err := datagen.Generate(p, mathx.NewRNG(seed))
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	b := make([]float64, p.Items)
	for i := range b {
		b[i] = 0.05 * math.Log(w.Popularity[i])
	}
	m, err := mf.FromRaw(mf.Config{
		NumUsers: p.Users, NumItems: p.Items, Dim: w.Dim, UseBias: true,
	}, w.TrueUser, w.TrueItem, b)
	if err != nil {
		tb.Fatalf("FromRaw: %v", err)
	}
	return m, w
}

// exactTop returns the dense-path top-k for user u: engine ScoreAll plus
// rank.TopKDropped with merge-pointer exclusion — byte for byte the serve
// path's exact branch.
func exactTop(eng *score.Engine, train *dataset.Dataset, u int32, k int) ([]rank.Entry, int) {
	scores := make([]float64, eng.Params().NumItems())
	eng.ScoreAll(u, scores)
	pos := train.Positives(u)
	idx := 0
	return rank.TopKDropped(scores, k, func(i int32) bool {
		for idx < len(pos) && pos[idx] < i {
			idx++
		}
		return idx < len(pos) && pos[idx] == i
	})
}

// meanRecall measures mean recall@k of the index against exact retrieval
// over every user, both sides excluding train positives.
func meanRecall(tb testing.TB, ix *Index, m *mf.Model, train *dataset.Dataset, k, nprobe int) float64 {
	tb.Helper()
	eng := score.NewEngine(m)
	var sum float64
	users := 0
	for u := int32(0); u < int32(m.NumUsers()); u++ {
		exact, _ := exactTop(eng, train, u, k)
		if len(exact) == 0 {
			continue
		}
		approx, _ := ix.Search(m.UserFactors(u), k, nprobe, train.Positives(u))
		set := make(map[int32]bool, len(exact))
		for _, e := range exact {
			set[e.Item] = true
		}
		hit := 0
		for _, e := range approx {
			if set[e.Item] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(exact))
		users++
	}
	if users == 0 {
		tb.Fatal("no users with a non-empty exact top-k")
	}
	return sum / float64(users)
}

// TestIVFSmoke is the check.sh gate: build an index over a seeded
// ground-truth world, query every user, and hold the calibrated recall
// floor. Config (nlist=32, nprobe=16) measures ≥ 0.957 across seeds at
// this scale; the floor leaves margin while still catching any real
// quantizer or probe-order regression.
func TestIVFSmoke(t *testing.T) {
	m, w := worldModel(t, 0.25, 7)
	ix, err := BuildIVF(m, Config{NLists: 32, NProbe: 16})
	if err != nil {
		t.Fatalf("BuildIVF: %v", err)
	}
	if got := meanRecall(t, ix, m, w.Data, 10, 0); got < 0.95 {
		t.Fatalf("recall@10 = %.4f, want >= 0.95", got)
	}
	// The float32 half of the gate: an index over the quantized factors,
	// queried at full probe width, is the float32 exact scan — whatever
	// recall it loses against the float64 ranking is quantization's alone.
	ix32, err := BuildIVF(mf.QuantizeF32(m), Config{NProbe: 1 << 30})
	if err != nil {
		t.Fatalf("BuildIVF(float32): %v", err)
	}
	if got := meanRecall(t, ix32, m, w.Data, 10, 0); got < 0.95 {
		t.Fatalf("float32 full-probe recall@10 = %.4f, want >= 0.95", got)
	}
}

func TestBuildIVFDefaults(t *testing.T) {
	m, _ := worldModel(t, 0.25, 1)
	ix, err := BuildIVF(m, Config{})
	if err != nil {
		t.Fatalf("BuildIVF: %v", err)
	}
	n := m.NumItems()
	wantLists := int(math.Ceil(2 * math.Sqrt(float64(n))))
	if ix.NLists() != wantLists {
		t.Errorf("NLists = %d, want %d", ix.NLists(), wantLists)
	}
	if ix.NProbe() != (wantLists+3)/4 {
		t.Errorf("NProbe = %d, want %d", ix.NProbe(), (wantLists+3)/4)
	}
	if ix.NumItems() != n {
		t.Errorf("NumItems = %d, want %d", ix.NumItems(), n)
	}
	if ix.Dim() != m.Dim() {
		t.Errorf("Dim = %d, want %d", ix.Dim(), m.Dim())
	}
	if ix.NonFinite() != 0 {
		t.Errorf("NonFinite = %d on a clean model", ix.NonFinite())
	}
}

func TestBuildIVFErrors(t *testing.T) {
	if _, err := BuildIVF(nil, Config{}); err == nil {
		t.Error("nil model: want error")
	}
}

// TestBuildIVFDeterministic: same (model, config) twice must agree bit
// for bit — the property hot reload and response pinning rely on.
func TestBuildIVFDeterministic(t *testing.T) {
	m, w := worldModel(t, 0.25, 3)
	a, err := BuildIVF(m, Config{NLists: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildIVF(m, Config{NLists: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < int32(m.NumUsers()); u += 7 {
		uf := m.UserFactors(u)
		ta, da := a.Search(uf, 10, 0, w.Data.Positives(u))
		tb, db := b.Search(uf, 10, 0, w.Data.Positives(u))
		if da != db || len(ta) != len(tb) {
			t.Fatalf("user %d: builds disagree (%d/%d entries, %d/%d dropped)", u, len(ta), len(tb), da, db)
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("user %d entry %d: %+v vs %+v", u, i, ta[i], tb[i])
			}
		}
	}
}

// TestSearchShortCandidates: when pruning leaves fewer than k candidates
// the result is shorter than k, never padded or panicking.
func TestSearchShortCandidates(t *testing.T) {
	m, w := worldModel(t, 0.25, 1)
	ix, err := BuildIVF(m, Config{NLists: 64})
	if err != nil {
		t.Fatal(err)
	}
	uf := m.UserFactors(0)
	got, _ := ix.Search(uf, 10_000, 1, nil)
	cands := ix.Probe(uf, 1)
	if len(got) != len(cands) {
		t.Errorf("k over candidate count: got %d entries for %d candidates", len(got), len(cands))
	}
	if top, _ := ix.Search(uf, 0, 1, nil); len(top) != 0 {
		t.Errorf("k=0: got %d entries", len(top))
	}
	_ = w
}

// TestSearchExcludesAll: excluding the entire catalog must yield an empty
// list at any probe width.
func TestSearchExcludesAll(t *testing.T) {
	m, _ := worldModel(t, 0.25, 1)
	ix, err := BuildIVF(m, Config{NLists: 16})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int32, m.NumItems())
	for i := range all {
		all[i] = int32(i)
	}
	for _, nprobe := range []int{1, 4, 16} {
		if got, _ := ix.Search(m.UserFactors(1), 10, nprobe, all); len(got) != 0 {
			t.Errorf("nprobe %d: %d entries despite full exclusion", nprobe, len(got))
		}
	}
}

// TestSearchNaNQuery: a poisoned user vector produces NaN scores
// everywhere; the result must be empty with every candidate counted as
// dropped, and nothing may panic.
func TestSearchNaNQuery(t *testing.T) {
	m, _ := worldModel(t, 0.25, 1)
	ix, err := BuildIVF(m, Config{NLists: 16})
	if err != nil {
		t.Fatal(err)
	}
	uf := make([]float64, m.Dim())
	uf[0] = math.NaN()
	got, dropped := ix.Search(uf, 10, ix.NLists(), nil)
	if len(got) != 0 {
		t.Errorf("NaN query: got %d entries", len(got))
	}
	if dropped != m.NumItems() {
		t.Errorf("NaN query: dropped = %d, want %d", dropped, m.NumItems())
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"exact", ModeExact, true},
		{"ivf", ModeIVF, true},
		{"", ModeExact, false},
		{"IVF", ModeExact, false},
		{"hnsw", ModeExact, false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if ModeExact.String() != "exact" || ModeIVF.String() != "ivf" {
		t.Errorf("String round-trip broken: %q %q", ModeExact, ModeIVF)
	}
	if s := Mode(99).String(); s != "Mode(99)" {
		t.Errorf("unknown mode String = %q", s)
	}
}

func TestConfigDefaultsClamp(t *testing.T) {
	c := Config{NLists: 100, NProbe: 50}.withDefaults(8)
	if c.NLists != 8 || c.NProbe != 8 {
		t.Errorf("clamp to catalog: got nlist=%d nprobe=%d, want 8/8", c.NLists, c.NProbe)
	}
	c = Config{}.withDefaults(1)
	if c.NLists != 1 || c.NProbe != 1 {
		t.Errorf("single item: got nlist=%d nprobe=%d, want 1/1", c.NLists, c.NProbe)
	}
	if c.Seed == 0 || c.Iters <= 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
}
