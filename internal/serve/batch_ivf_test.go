package serve

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"clapf/internal/mf"
	"clapf/internal/retrieval"
)

// keys snapshots every key currently in the cache, for white-box
// assertions about mode isolation.
func (c *resultCache) keys() []cacheKey {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheKey, 0, len(c.byKey))
	for k := range c.byKey {
		out = append(out, k)
	}
	return out
}

// TestBatchIVFMatchesSinglePath is the batch endpoint's golden property
// under IVF retrieval: every known-user entry must be answered by exactly
// the dispatch the single-request path uses — probing the index — not by
// a silent fall-back to dense scoring. At full probe width the index is
// exhaustive, so batch answers must additionally byte-match the exact
// engine; at a heavily pruned width the IVF answer is allowed to diverge
// from exact, and the batch answer must follow the IVF divergence.
func TestBatchIVFMatchesSinglePath(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	users := []int32{0, 3, 7, 11, 23, 42}

	singleBody := func(u int32) string {
		rec, _ := get(t, h, "/recommend?user="+itos(u)+"&k=9")
		if rec.Code != http.StatusOK {
			t.Fatalf("user %d: status %d", u, rec.Code)
		}
		return rec.Body.String()
	}
	batchItems := func() map[int32][]Item {
		req := BatchRequest{}
		for _, u := range users {
			req.Requests = append(req.Requests, BatchEntry{User: i32(u), K: 9})
		}
		rec, resp := postBatch(t, h, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
		}
		out := make(map[int32][]Item, len(users))
		for i, r := range resp.Results {
			if r.Error != "" {
				t.Fatalf("entry %d: %s", i, r.Error)
			}
			out[*r.User] = r.Items
		}
		return out
	}
	singleItems := func(u int32) []Item {
		rec, resp := get(t, h, "/recommend?user="+itos(u)+"&k=9")
		if rec.Code != http.StatusOK {
			t.Fatalf("user %d: status %d", u, rec.Code)
		}
		return resp.Items
	}
	assertAgree := func(label string) {
		t.Helper()
		s.SetCacheSize(0) // single first, batch second, no cache coupling
		defer s.SetCacheSize(DefaultCacheSize)
		want := make(map[int32][]Item, len(users))
		for _, u := range users {
			want[u] = singleItems(u)
		}
		got := batchItems()
		for _, u := range users {
			if len(got[u]) != len(want[u]) {
				t.Fatalf("%s: user %d: batch %d items, single %d", label, u, len(got[u]), len(want[u]))
			}
			for i := range want[u] {
				if got[u][i] != want[u][i] {
					t.Errorf("%s: user %d rank %d: batch %+v, single %+v",
						label, u, i, got[u][i], want[u][i])
				}
			}
		}
	}

	// Exact baseline, captured for the full-width comparison below.
	exact := make(map[int32]string, len(users))
	for _, u := range users {
		exact[u] = singleBody(u)
	}
	assertAgree("exact")

	// Full probe width: IVF is exhaustive, so batch == single == exact.
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 16, NProbe: 16, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	assertAgree("ivf-full")
	for _, u := range users {
		if got := singleBody(u); got != exact[u] {
			t.Errorf("user %d: full-probe IVF diverges from exact", u)
		}
	}

	// Pruned width: the interesting case. If dense scoring leaked back
	// into the batch path it would match exact here; the index answer is
	// the one that must come back.
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 16, NProbe: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	assertAgree("ivf-pruned")
	diverged := false
	for _, u := range users {
		if singleBody(u) != exact[u] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Log("pruned IVF agreed with exact for every probe user; bypass would be invisible here")
	}
}

// TestBatchIVFCacheKeying checks the batch path's cache discipline under
// IVF: entries answered in pass 1 go through topKForUser's mode-keyed
// cache, so a second identical batch is served from cache (hits counted)
// and every key in the live cache carries the IVF mode.
func TestBatchIVFCacheKeying(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 8, NProbe: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	req := BatchRequest{Requests: []BatchEntry{
		{User: i32(1), K: 6}, {User: i32(2), K: 6}, {User: i32(1), K: 6},
	}}
	rec, first := postBatch(t, h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	hits0 := s.cacheHits.Value()
	rec, second := postBatch(t, h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := s.cacheHits.Value() - hits0; got < 3 {
		t.Errorf("second batch produced %d cache hits, want >= 3", got)
	}
	for i := range first.Results {
		a, b := first.Results[i].Items, second.Results[i].Items
		if len(a) != len(b) {
			t.Fatalf("entry %d: %d items then %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("entry %d rank %d: %+v then %+v", i, j, a[j], b[j])
			}
		}
	}
	for _, k := range s.live.Load().cache.keys() {
		if k.mode != retrieval.ModeIVF {
			t.Errorf("cache key %+v carries mode %v, want IVF", k, k.mode)
		}
	}
}

// TestModeFlipUnderInFlightBatch races batches against retrieval mode
// flips and then asserts the isolation invariant: the cache a request
// generation writes into dies with that generation, and every surviving
// entry's key mode matches the generation's mode — so a batch that was
// in flight across SetRetrieval can never poison the other mode's
// answers.
func TestModeFlipUnderInFlightBatch(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	req := BatchRequest{Requests: []BatchEntry{
		{User: i32(1), K: 5}, {User: i32(2), K: 5}, {User: i32(3), K: 5},
	}}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec, _ := postBatch(t, h, req)
				if rec.Code != http.StatusOK {
					t.Errorf("batch status %d", rec.Code)
					return
				}
			}
		}()
	}
	cfgs := []struct {
		mode retrieval.Mode
		cfg  retrieval.Config
	}{
		{retrieval.ModeIVF, retrieval.Config{NLists: 8, NProbe: 2, Seed: 7}},
		{retrieval.ModeExact, retrieval.Config{}},
		{retrieval.ModeIVF, retrieval.Config{NLists: 16, NProbe: 4, Seed: 9}},
		{retrieval.ModeExact, retrieval.Config{}},
		{retrieval.ModeIVF, retrieval.Config{NLists: 4, NProbe: 1, Seed: 11}},
	}
	for _, c := range cfgs {
		if err := s.SetRetrieval(c.mode, c.cfg); err != nil {
			t.Fatal(err)
		}
		st := s.live.Load()
		if len(st.cache.keys()) != 0 {
			t.Errorf("fresh generation (mode %v) born with %d cache entries", c.mode, len(st.cache.keys()))
		}
	}
	close(stop)
	wg.Wait()

	// Drain one more batch so the final generation has entries, then
	// check every key's mode against the generation that owns it.
	if rec, _ := postBatch(t, h, req); rec.Code != http.StatusOK {
		t.Fatalf("final batch status %d", rec.Code)
	}
	st := s.live.Load()
	ks := st.cache.keys()
	if len(ks) == 0 {
		t.Fatal("final generation cached nothing")
	}
	for _, k := range ks {
		if k.mode != st.mode {
			t.Errorf("cache key %+v in generation with mode %v", k, st.mode)
		}
	}
}

// TestServeFloat32Params stands the server up over quantized float32
// factors (what store.Open makes of a float32 file, minus the file) and checks the
// public surface end to end: recommendations, cold-start fold-in,
// similar-items, health dims, batch/single agreement, and that Model()
// correctly reports the absence of a float64 model.
func TestServeFloat32Params(t *testing.T) {
	s64, train := testServer(t)
	m, _ := s64.Params().(*mf.Model)
	if m == nil {
		t.Fatal("testServer did not serve an *mf.Model")
	}
	s, err := NewFromParams(mf.QuantizeF32(m), train)
	if err != nil {
		t.Fatal(err)
	}
	if s.Model() != nil {
		t.Error("Model() should be nil when serving float32 factors")
	}
	h := s.Handler()
	for _, p := range []string{
		"/recommend?user=3&k=7",
		"/recommend?items=5,2,9&k=7",
		"/similar?item=4&k=5",
	} {
		rec, _ := get(t, h, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", p, rec.Code, rec.Body.String())
		}
	}
	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusOK {
		t.Fatalf("/healthz: status %d: %s", hrec.Code, hrec.Body.String())
	}

	// Single and batch must agree bit-for-bit on the float32 engine.
	s.SetCacheSize(0)
	recSingle, single := get(t, h, "/recommend?user=11&k=8")
	if recSingle.Code != http.StatusOK {
		t.Fatalf("single status %d", recSingle.Code)
	}
	rec, batch := postBatch(t, h, BatchRequest{Requests: []BatchEntry{{User: i32(11), K: 8}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d", rec.Code)
	}
	if len(batch.Results[0].Items) != len(single.Items) {
		t.Fatalf("batch %d items, single %d", len(batch.Results[0].Items), len(single.Items))
	}
	for i := range single.Items {
		if single.Items[i] != batch.Results[0].Items[i] {
			t.Errorf("rank %d: single %+v, batch %+v", i, single.Items[i], batch.Results[0].Items[i])
		}
	}

	// IVF over float32 factors serves too, and full width matches the
	// f32 exact answers byte-for-byte.
	exactBody := recSingle.Body.String()
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 16, NProbe: 16, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	recIVF, _ := get(t, h, "/recommend?user=11&k=8")
	if recIVF.Code != http.StatusOK {
		t.Fatalf("ivf status %d", recIVF.Code)
	}
	if recIVF.Body.String() != exactBody {
		t.Errorf("full-probe f32 IVF diverges from f32 exact\nivf:   %s\nexact: %s",
			recIVF.Body.String(), exactBody)
	}
}
