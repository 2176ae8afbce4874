package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clapf/internal/fault"
	"clapf/internal/mf"
	"clapf/internal/retrieval"
)

// TestRetrievalModesOverHTTP drives the full mode lifecycle through the
// public surface: exact answers are captured, the server is flipped to IVF
// at full probe width (where retrieval is provably exhaustive, so every
// byte of every response must match exact), then flipped back. healthz
// reports the live mode throughout. This is the serving-side half of the
// exact-bit-identity guarantee — the retrieval package proves the index
// math, this proves the wiring changes nothing it shouldn't.
func TestRetrievalModesOverHTTP(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	users := []int32{0, 3, 11, 42}
	paths := make([]string, 0, len(users)+1)
	for _, u := range users {
		paths = append(paths, "/recommend?user="+itos(u)+"&k=7")
	}
	paths = append(paths, "/recommend?items=5,2,9&k=7") // cold-start fold-in

	exact := make(map[string]string, len(paths))
	for _, p := range paths {
		rec, _ := get(t, h, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", p, rec.Code)
		}
		exact[p] = rec.Body.String()
	}
	if mode := healthRetrieval(t, h); mode != "exact" {
		t.Fatalf("healthz retrieval = %q before SetRetrieval", mode)
	}

	// Full-width IVF: nprobe == nlist probes every cell, so responses must
	// be bit-identical to the exact engine output.
	cfg := retrieval.Config{NLists: 16, NProbe: 16, Seed: 3}
	if err := s.SetRetrieval(retrieval.ModeIVF, cfg); err != nil {
		t.Fatal(err)
	}
	if mode := healthRetrieval(t, h); mode != "ivf" {
		t.Fatalf("healthz retrieval = %q after SetRetrieval(ivf)", mode)
	}
	for _, p := range paths {
		rec, _ := get(t, h, p)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s under ivf: status %d", p, rec.Code)
		}
		if rec.Body.String() != exact[p] {
			t.Errorf("%s: full-probe IVF body diverges from exact\nivf:   %s\nexact: %s",
				p, rec.Body.String(), exact[p])
		}
	}

	// And back: exact mode must byte-match the original captures again.
	if err := s.SetRetrieval(retrieval.ModeExact, retrieval.Config{}); err != nil {
		t.Fatal(err)
	}
	if mode := healthRetrieval(t, h); mode != "exact" {
		t.Fatalf("healthz retrieval = %q after switching back", mode)
	}
	for _, p := range paths {
		rec, _ := get(t, h, p)
		if rec.Body.String() != exact[p] {
			t.Errorf("%s: exact mode changed after a round trip through ivf", p)
		}
	}
}

func healthRetrieval(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	var resp HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Retrieval
}

// TestIVFPrunedInvariants runs a genuinely pruned configuration (nprobe <
// nlist) through the handler and checks the invariants approximation is
// not allowed to break: every returned id is in range, never one of the
// user's train positives (known-user path) or the supplied history
// (cold-start path), entries are unique, and no more than k come back.
func TestIVFPrunedInvariants(t *testing.T) {
	s, train := testServer(t)
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 16, NProbe: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	numItems := s.Model().NumItems()

	for u := int32(0); u < int32(train.NumUsers()); u++ {
		rec, body := get(t, h, "/recommend?user="+itos(u)+"&k=10")
		if rec.Code != http.StatusOK {
			t.Fatalf("user %d: status %d", u, rec.Code)
		}
		if len(body.Items) > 10 {
			t.Fatalf("user %d: %d items for k=10", u, len(body.Items))
		}
		seen := map[int32]bool{}
		for _, it := range body.Items {
			if it.Item < 0 || int(it.Item) >= numItems {
				t.Fatalf("user %d: item %d out of range", u, it.Item)
			}
			if seen[it.Item] {
				t.Fatalf("user %d: duplicate item %d", u, it.Item)
			}
			seen[it.Item] = true
			if train.IsPositive(u, it.Item) {
				t.Fatalf("user %d: train positive %d leaked through merge-exclusion", u, it.Item)
			}
		}
	}

	rec, body := get(t, h, "/recommend?items=1,2,3,4&k=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("cold-start: status %d", rec.Code)
	}
	for _, it := range body.Items {
		for _, hist := range []int32{1, 2, 3, 4} {
			if it.Item == hist {
				t.Fatalf("cold-start returned history item %d", it.Item)
			}
		}
	}
}

// TestCacheModeKeying checks, white-box, that cached top-K entries can
// never alias across retrieval modes: the key carries the mode, and a mode
// switch installs a fresh cache, so an exact-mode entry is unreachable
// from IVF mode even if a racing request wrote it into the current cache.
func TestCacheModeKeying(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	if rec, _ := get(t, h, "/recommend?user=2&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	st := s.live.Load()
	exactKey := cacheKey{user: 2, k: 5, mode: retrieval.ModeExact}
	if _, _, ok := st.cache.get(exactKey); !ok {
		t.Fatal("exact request did not populate the cache")
	}
	// Simulate the race the mode-keyed cache exists for: an entry written
	// under one mode into a cache later read under the other.
	if _, _, ok := st.cache.get(cacheKey{user: 2, k: 5, mode: retrieval.ModeIVF}); ok {
		t.Fatal("IVF-keyed lookup hit an exact-mode entry")
	}
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 8, NProbe: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if rec, _ := get(t, h, "/recommend?user=2&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	st = s.live.Load()
	if _, _, ok := st.cache.get(cacheKey{user: 2, k: 5, mode: retrieval.ModeIVF}); !ok {
		t.Fatal("IVF request did not populate the new cache")
	}
	if _, _, ok := st.cache.get(exactKey); ok {
		t.Fatal("exact-mode entry survived into the IVF generation's cache")
	}
}

// TestIVFHotReloadUnderConcurrentTraffic is the reload-churn hammer with
// the IVF index in the liveState: /recommend traffic races Install while
// the model rolls forward and back, with rejected swaps (poisoned, wrong
// shape) slammed in between. Every response must byte-match exactly one
// generation's expected IVF top-K — a torn liveState (new model with the
// old model's index, or a stale cache entry) would produce a body matching
// neither — and a rejected swap must keep the old index object itself, not
// just the old generation number.
func TestIVFHotReloadUnderConcurrentTraffic(t *testing.T) {
	s, train := testServer(t)
	s.MaxInFlight = 0 // no shedding: every request must be answered
	cfg := retrieval.Config{NLists: 12, NProbe: 5, Seed: 9}
	if err := s.SetRetrieval(retrieval.ModeIVF, cfg); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	genA := s.Model()
	genB := negatedClone(genA)

	// Expected per-generation bodies come from probe servers running the
	// same deterministic IVF build over each model.
	const k = 5
	users := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	expect := map[*mf.Model]map[int32]string{genA: {}, genB: {}}
	for _, m := range []*mf.Model{genA, genB} {
		probe, err := New(m, train)
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.SetRetrieval(retrieval.ModeIVF, cfg); err != nil {
			t.Fatal(err)
		}
		ph := probe.Handler()
		for _, u := range users {
			rec := httptest.NewRecorder()
			ph.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				"/recommend?user="+itos(u)+"&k="+itos(int32(k)), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("probe request for user %d: status %d", u, rec.Code)
			}
			expect[m][u] = rec.Body.String()
		}
	}

	poisoned := genA.Clone()
	fault.PoisonItemFactors(poisoned, 7, 2)
	misshapen := mf.MustNew(mf.Config{NumUsers: 2, NumItems: 2, Dim: 2})

	var stop atomic.Bool
	var torn atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				u := users[(i+w)%len(users)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
					"/recommend?user="+itos(u)+"&k="+itos(int32(k)), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("request under reload churn: status %d", rec.Code)
					return
				}
				body := rec.Body.String()
				if body != expect[genA][u] && body != expect[genB][u] {
					torn.Add(1)
				}
				served.Add(1)
			}
		}(w)
	}

	awaitTraffic := func(n int64) {
		target := served.Load() + n
		deadline := time.Now().Add(10 * time.Second)
		for served.Load() < target {
			if time.Now().After(deadline) {
				t.Fatal("hammer goroutines stalled; no traffic interleaved with swaps")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	awaitTraffic(4)
	for i := 0; i < 25; i++ {
		awaitTraffic(2)
		next := genB
		if i%2 == 1 {
			next = genA
		}
		before := s.Generation()
		if err := s.Install(next, InstallOpts{Folded: KeepFoldedSeq}); err != nil {
			t.Fatalf("valid swap %d rejected: %v", i, err)
		}
		if s.Generation() != before+1 {
			t.Fatalf("valid swap %d did not advance generation", i)
		}
		if ix := s.live.Load().index; ix == nil {
			t.Fatalf("swap %d published a liveState without an IVF index", i)
		}
		bad := poisoned
		if i%2 == 1 {
			bad = misshapen
		}
		gen, ix := s.Generation(), s.live.Load().index
		if err := s.Install(bad, InstallOpts{Folded: KeepFoldedSeq}); err == nil {
			t.Fatalf("invalid swap %d accepted", i)
		}
		if s.Generation() != gen || s.live.Load().index != ix {
			t.Fatalf("rejected swap %d disturbed the serving index or generation", i)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Errorf("%d of %d responses matched neither generation's IVF top-K (torn liveState)",
			n, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("hammer goroutines served nothing; the test proved nothing")
	}
}
