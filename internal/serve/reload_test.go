package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clapf/internal/fault"
	"clapf/internal/mf"
	"clapf/internal/store"
)

// negatedClone returns m with every parameter negated — a model whose
// top-K for any user is (score-wise) the exact mirror of m's, so a
// response can be attributed unambiguously to one generation.
func negatedClone(m *mf.Model) *mf.Model {
	c := m.Clone()
	u, v, b := c.RawParams()
	for i := range u {
		u[i] = -u[i]
	}
	for i := range v {
		v[i] = -v[i]
	}
	for i := range b {
		b[i] = -b[i]
	}
	return c
}

// TestHotReloadUnderConcurrentTraffic hammers /recommend from several
// goroutines while the main goroutine rolls the model forward and back
// (valid swaps) and slams it with rejected swaps (poisoned model, wrong
// shape) in between. Every response must be a 200 whose item scores
// match exactly one generation's expected top-K — a request observing a
// torn liveState (old model, new cache, or half-swapped engine) would
// produce a ranking belonging to neither — and every rejected swap must
// leave the serving generation untouched.
func TestHotReloadUnderConcurrentTraffic(t *testing.T) {
	s, train := testServer(t)
	s.MaxInFlight = 0 // no shedding: every request must be answered
	h := s.Handler()

	genA := s.Model()
	genB := negatedClone(genA)

	// Expected top-K per generation for the users the hammer cycles over.
	const k = 5
	users := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	expect := map[*mf.Model]map[int32]string{genA: {}, genB: {}}
	for _, m := range []*mf.Model{genA, genB} {
		probe, err := New(m, train)
		if err != nil {
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

	// awaitTraffic blocks until at least n requests have completed since
	// the last call — without it the swap loop can finish before the
	// hammer goroutines are even scheduled and the test proves nothing.
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

	// Roll forward and back 40 times, interleaving rejected swaps. Each
	// valid swap bumps the generation; each rejected one must not, and
	// every iteration provably overlaps live traffic.
	awaitTraffic(4)
	for i := 0; i < 40; i++ {
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
		bad := poisoned
		if i%2 == 1 {
			bad = misshapen
		}
		gen, model := s.Generation(), s.Model()
		if err := s.Install(bad, InstallOpts{Folded: KeepFoldedSeq}); err == nil {
			t.Fatalf("invalid swap %d accepted", i)
		}
		if s.Generation() != gen || s.Model() != model {
			t.Fatalf("rejected swap %d disturbed the serving generation", i)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Errorf("%d of %d responses matched neither generation's top-K (torn liveState)",
			n, served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("hammer goroutines served nothing; the test proved nothing")
	}
}

func itos(v int32) string { return strconv.Itoa(int(v)) }

// TestAdminReloadEndpoint covers the opt-in HTTP reload surface the
// router's rolling reload drives: disabled by default, mounted by
// EnableAdminReload, success advances the generation, and a corrupt
// model file reports 500 while the old generation keeps serving.
func TestAdminReloadEndpoint(t *testing.T) {
	s, _ := testServer(t)

	// Off by default: the route does not exist.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code == http.StatusOK {
		t.Fatal("admin reload answered without EnableAdminReload")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "m.clapf")
	if err := store.SaveFile(path, s.Model()); err != nil {
		t.Fatal(err)
	}
	s.EnableAdminReload(func() error { return s.ReloadFromFile(path) })
	h := s.Handler()

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("admin reload: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "reloaded" || resp.Generation != 1 {
		t.Errorf("admin reload response = %+v, want reloaded/1", resp)
	}

	// Corrupt the file: reload fails with 500, generation holds.
	if err := fault.FlipByte(path, 40); err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt admin reload: status %d, want 500", rec.Code)
	}
	if s.Generation() != 1 {
		t.Errorf("corrupt reload moved generation to %d", s.Generation())
	}
	rec, _ = get(t, h, "/recommend?user=1&k=3")
	if rec.Code != http.StatusOK {
		t.Errorf("post-failed-reload request: status %d", rec.Code)
	}
}
