package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/retrieval"
)

// gaussianServer serves a random float32 model over a catalog of the given
// size, every user holding the same few positives: what an exact-mode miss
// allocates does not depend on parameter values.
func gaussianServer(t testing.TB, items int) *Server {
	t.Helper()
	const users = 8
	b := dataset.NewBuilder("alloc", users, items)
	for u := int32(0); u < users; u++ {
		for j := 0; j < 20; j++ {
			if err := b.Add(u, int32((int(u)+j*17)%items)); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := mf.MustNew(mf.Config{NumUsers: users, NumItems: items, Dim: 16, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(uint64(items)), 0.1)
	s, err := NewFromParams(mf.QuantizeF32(m), b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// missBytes is the mean heap bytes one exact-mode cache miss allocates,
// request construction to response written, through the real handler
// chain.
func missBytes(t *testing.T, items int) float64 {
	t.Helper()
	s := gaussianServer(t, items)
	s.SetCacheSize(0)
	h := s.Handler()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/recommend?user=3&k=10", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%d items: status %d", items, rec.Code)
		}
	}
	// Lazy set-up is not a per-request cost: stage histograms and pools on
	// the first miss, the engine's bound image on the second.
	serve()
	serve()
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestExactMissAllocatesNoScoreRow is the allocation gate on the fused
// scan: a miss over the benchmark's 26 744-item catalog may allocate no
// more than a small constant beyond a miss over 512 items. The score row
// the two-pass path allocated was 8 bytes per item — 209 KB of difference
// between these two catalogs; anything proportional to NumItems trips the
// 2 KB allowance.
func TestExactMissAllocatesNoScoreRow(t *testing.T) {
	small, large := missBytes(t, 512), missBytes(t, 26744)
	t.Logf("bytes per exact miss: %.0f at 512 items, %.0f at 26744 items", small, large)
	if large > small+2048 {
		t.Errorf("an exact miss allocates %.0f B over 26744 items but %.0f B over 512: something scales with the catalog",
			large, small)
	}
}

// TestMissHandsOverTheSelectorsSlice: a known-user exact miss allocates
// the selector's k entries and nothing else — the entries' backing array
// is what the cache keeps and the encoder reads. A copy into a second
// (item, score) type was one more allocation per miss, and so was the
// engine's score tile while it escaped through the mf.Params call; the
// sweep's bound and exact tiles now go to mathx kernels and stay on the
// stack. Over float64 rows the user vector is the stored row; a float32
// base adds the widened one. The bound's image is built once per engine, on
// its second miss, which the call ahead of AllocsPerRun's warm-up takes.
func TestMissHandsOverTheSelectorsSlice(t *testing.T) {
	s, _ := testServer(t)
	s.SetCacheSize(0)
	ctx := context.Background()
	miss := func() float64 {
		st := s.live.Load()
		s.topKForUser(ctx, st, 3, 10)
		return testing.AllocsPerRun(100, func() { s.topKForUser(ctx, st, 3, 10) })
	}
	if got := miss(); got != 1 {
		t.Errorf("f64: a known-user miss makes %v allocations, want 1", got)
	}
	if err := s.Install(mf.QuantizeF32(s.Model()), InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	if got := miss(); got != 2 {
		t.Errorf("f32: a known-user miss makes %v allocations, want 2", got)
	}
}

// overlaySink is the least FeedbackSink an install needs: an empty overlay
// over whatever base it is handed.
type overlaySink struct{ sync.Mutex }

func (*overlaySink) Ingest(context.Context, int32, int32) (uint64, bool, error) { return 0, false, nil }
func (*overlaySink) ExtraPositives(int32) []int32                               { return nil }
func (*overlaySink) Stats() FeedbackStats                                       { return FeedbackStats{} }
func (*overlaySink) RebuildOverlay(base mf.Params, _ uint64) (*mf.Overlay, error) {
	return mf.NewOverlay(base), nil
}

// TestIndexReusedAcrossReinstalls: the IVF index depends on the values of
// the base's item parameters and the retrieval config alone, so the boot
// sequence SetRetrieval → EnableFeedback → SetCacheSize must build it
// once, an install of the same item half (what a promotion or a reload of
// an unmoved file is) must keep it, and only a changed item row or bias,
// another precision, a new config or a round trip through exact mode may
// build another.
func TestIndexReusedAcrossReinstalls(t *testing.T) {
	s, _ := testServer(t)
	index := func() *retrieval.Index { return s.live.Load().index }
	cfg := retrieval.Config{NLists: 8}

	if err := s.SetRetrieval(retrieval.ModeIVF, cfg); err != nil {
		t.Fatal(err)
	}
	built := index()
	if built == nil {
		t.Fatal("no index after SetRetrieval(ivf)")
	}
	if err := s.EnableFeedback(&overlaySink{}); err != nil {
		t.Fatal(err)
	}
	if s.live.Load().overlay == nil {
		t.Fatal("EnableFeedback did not reinstall the live state")
	}
	if index() != built {
		t.Error("EnableFeedback rebuilt the index over the same base and config")
	}
	s.SetCacheSize(7)
	if index() != built {
		t.Error("SetCacheSize rebuilt the index")
	}
	if err := s.SetRetrieval(retrieval.ModeIVF, cfg); err != nil {
		t.Fatal(err)
	}
	if index() != built {
		t.Error("SetRetrieval with the live config rebuilt the index")
	}

	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 4}); err != nil {
		t.Fatal(err)
	}
	recfg := index()
	if recfg == built || recfg.NLists() != 4 {
		t.Errorf("a changed config kept the old index (%d cells)", recfg.NLists())
	}
	install := func(m mf.Params) *retrieval.Index {
		t.Helper()
		if err := s.Install(m, InstallOpts{Folded: KeepFoldedSeq}); err != nil {
			t.Fatal(err)
		}
		return index()
	}
	newUsers := s.Model().Clone()
	newUsers.UserFactors(3)[0] += 0.5
	if install(newUsers) != recfg {
		t.Error("Install of a base with the same item half rebuilt the index")
	}
	ulp := s.Model().Clone()
	ulp.ItemFactors(11)[2] = math.Nextafter(ulp.ItemFactors(11)[2], math.Inf(1))
	moved := install(ulp)
	if moved == recfg {
		t.Error("Install of a base with one item coordinate one ulp away kept the index")
	}
	rebiased := s.Model().Clone()
	rebiased.AddBias(11, 0.25)
	if got := install(rebiased); got == moved {
		t.Error("Install of a base with one bias changed kept the index")
	}
	f64 := index()
	if got := install(mf.QuantizeF32(s.Model())); got == f64 {
		t.Error("Install of the float32 quantization kept the float64 index")
	}
	if err := s.SetRetrieval(retrieval.ModeExact, retrieval.Config{}); err != nil {
		t.Fatal(err)
	}
	if index() != nil {
		t.Error("exact mode kept an index")
	}
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 4}); err != nil {
		t.Fatal(err)
	}
	if index() == nil {
		t.Error("no index after returning to ivf")
	}
}
