package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"clapf/internal/fault"
	"clapf/internal/mf"
	"clapf/internal/store"
)

func TestRecoverMiddleware(t *testing.T) {
	s, _ := testServer(t)
	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	for i := 1; i <= 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/recommend?user=1", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("panic %d: status = %d, want 500", i, rec.Code)
		}
		if s.panics.Value() != uint64(i) {
			t.Errorf("panic %d: clapf_panics_total = %d", i, s.panics.Value())
		}
	}
	// The server is still functional after panics.
	rec, _ := get(t, s.Handler(), "/recommend?user=1&k=3")
	if rec.Code != http.StatusOK {
		t.Errorf("post-panic request: status = %d", rec.Code)
	}
}

func TestRecoverPropagatesAbortHandler(t *testing.T) {
	s, _ := testServer(t)
	h := s.recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("ErrAbortHandler swallowed instead of propagated")
		}
		if s.panics.Value() != 0 {
			t.Errorf("deliberate abort counted as panic: %d", s.panics.Value())
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/recommend", nil))
}

func TestShedMiddleware(t *testing.T) {
	s, _ := testServer(t)
	s.MaxInFlight = 1
	entered := make(chan struct{})
	release := make(chan struct{})
	h := s.shedMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/recommend" {
			entered <- struct{}{}
			<-release
		}
		w.WriteHeader(http.StatusOK)
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/recommend", nil))
	}()
	<-entered // the slot is now held

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/recommend", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request: status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 missing Retry-After header")
	}
	if s.sheds.Value() != 1 {
		t.Errorf("clapf_load_shed_total = %d", s.sheds.Value())
	}

	// Health probes must never be shed, even at the cap.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s shed at cap: status = %d", path, rec.Code)
		}
	}

	close(release)
	wg.Wait()

	// With the slot free again, requests flow.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/similar", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("post-release request: status = %d", rec.Code)
	}
}

func TestTimeoutMiddlewareSetsDeadline(t *testing.T) {
	s, _ := testServer(t)
	s.RequestTimeout = 1 // nanosecond — any deadline proves the wiring
	var hadDeadline bool
	h := s.timeoutMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, hadDeadline = r.Context().Deadline()
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/recommend", nil))
	if !hadDeadline {
		t.Error("request context has no deadline")
	}
	hadDeadline = false
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hadDeadline {
		t.Error("health probe got a deadline; probes are exempt")
	}
}

func TestReadyz(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	rec, _ := get(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("ready server: /readyz = %d", rec.Code)
	}
	s.SetReady(false)
	rec, _ = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining server: /readyz = %d, want 503", rec.Code)
	}
	// Liveness is unaffected by draining.
	live := httptest.NewRecorder()
	h.ServeHTTP(live, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if live.Code != http.StatusOK {
		t.Errorf("draining server: /healthz = %d, want 200", live.Code)
	}
}

// TestReloadFromFile runs over both things a model file can be: the file,
// not the server, decides what a reload serves — a float64 server that is
// handed a float32 file maps it — and a rejected file of either kind
// leaves the whole live state (model, index, cache, mapping) and the
// generation untouched.
func TestReloadFromFile(t *testing.T) {
	for _, rep := range []struct {
		name      string
		write     func(string, *mf.Model) error
		precision string
		mapped    bool
	}{
		{"f64", store.SaveFile, "f64", false},
		{"f32", func(path string, m *mf.Model) error {
			return store.SaveF32File(path, mf.QuantizeF32(m), nil)
		}, "f32", true},
	} {
		t.Run(rep.name, func(t *testing.T) {
			s, _ := testServer(t)
			dir := t.TempDir()
			before := s.Model()
			save := func(name string, m *mf.Model) string {
				t.Helper()
				path := filepath.Join(dir, name)
				if err := rep.write(path, m); err != nil {
					t.Fatal(err)
				}
				return path
			}

			// A valid same-shape model swaps in, held the way its file asks.
			next := mf.MustNew(mf.Config{
				NumUsers: before.NumUsers(), NumItems: before.NumItems(),
				Dim: before.Dim(), UseBias: before.HasBias(), InitStd: 0.1,
			})
			good := save("good.clapf", next)
			if err := s.ReloadFromFile(good); err != nil {
				t.Fatalf("valid reload failed: %v", err)
			}
			if s.BaseParams() == mf.Params(before) || s.Generation() != 1 {
				t.Fatalf("model not swapped: generation = %d", s.Generation())
			}
			if p, m := s.Backing(); p != rep.precision || m != rep.mapped {
				t.Fatalf("reloaded base is %s mapped=%v, want %s mapped=%v", p, m, rep.precision, rep.mapped)
			}
			current := s.live.Load()

			// A torn file is rejected and the current model keeps serving.
			raw, err := os.ReadFile(good)
			if err != nil {
				t.Fatal(err)
			}
			torn := filepath.Join(dir, "torn.clapf")
			if err := os.WriteFile(torn, raw[:64], 0o644); err != nil {
				t.Fatal(err)
			}
			if err := s.ReloadFromFile(torn); err == nil {
				t.Fatal("torn file accepted")
			}

			// So is a complete file with one flipped payload byte: the
			// section checksum (of the mapped section, for a float32
			// file) is verified before the swap.
			raw[len(raw)-5] ^= 0x01
			flipped := filepath.Join(dir, "flipped.clapf")
			if err := os.WriteFile(flipped, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := s.ReloadFromFile(flipped); err == nil {
				t.Fatal("bit-flipped file accepted")
			}

			// A well-formed file with the wrong shape is rejected too.
			mismatched := save("mismatched.clapf", mf.MustNew(mf.Config{NumUsers: 2, NumItems: 2, Dim: 2}))
			if err := s.ReloadFromFile(mismatched); err == nil {
				t.Fatal("mismatched model accepted")
			}
			if err := s.ReloadFromFile(filepath.Join(dir, "missing.clapf")); err == nil {
				t.Fatal("missing file accepted")
			}

			if s.live.Load() != current || s.Generation() != 1 {
				t.Errorf("failed reloads disturbed the live state: generation = %d", s.Generation())
			}
			if s.reloadOK.Value() != 1 || s.reloadFail.Value() != 4 {
				t.Errorf("reload counters ok=%d fail=%d, want 1/4",
					s.reloadOK.Value(), s.reloadFail.Value())
			}

			// The server still answers after the failed reloads, and
			// /healthz says what the file decided.
			h := s.Handler()
			rec, _ := get(t, h, "/recommend?user=1&k=3")
			if rec.Code != http.StatusOK {
				t.Errorf("post-reload request: status = %d", rec.Code)
			}
			hrec := httptest.NewRecorder()
			h.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var health HealthResponse
			if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil {
				t.Fatal(err)
			}
			if health.Precision != rep.precision || health.Mapped != rep.mapped {
				t.Errorf("/healthz precision=%q mapped=%v, want %q/%v",
					health.Precision, health.Mapped, rep.precision, rep.mapped)
			}
		})
	}
}

func TestHealthzReportsGeneration(t *testing.T) {
	s, _ := testServer(t)
	if err := s.Install(s.Model().Clone(), InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.ModelGeneration != 1 {
		t.Errorf("model_generation = %d, want 1", h.ModelGeneration)
	}
}

func TestHistoryBoundAndDedupe(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	// The cap applies to *distinct* items: five distinct ids over a cap of
	// four is a 400 ...
	s.MaxHistory = 4
	rec, _ := get(t, h, "/recommend?items=1,2,3,4,5")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("over-limit history: status = %d, want 400", rec.Code)
	}
	// ... but a long list that dedupes to within the cap is accepted: a
	// re-view-padded history must not be rejected for its raw length.
	long := "/recommend?items=" + strings.Repeat("1,", 10) + "2"
	rec, _ = get(t, h, long)
	if rec.Code != http.StatusOK {
		t.Errorf("dedupes-under-cap history: status = %d, want 200", rec.Code)
	}

	// Duplicates collapse: 1,1,2,1 is the history {1,2}.
	items, err := parseItemList("1, 1,2,1", 80, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0] != 1 || items[1] != 2 {
		t.Errorf("deduped list = %v, want [1 2]", items)
	}

	// And the deduped request serves fine end-to-end.
	rec, body := get(t, h, "/recommend?items=3,3,5&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("deduped request: status = %d: %s", rec.Code, rec.Body.String())
	}
	for _, it := range body.Items {
		if it.Item == 3 || it.Item == 5 {
			t.Errorf("history item %d recommended back", it.Item)
		}
	}
}

func TestPoisonedModelSwapRejected(t *testing.T) {
	s, train := testServer(t)
	before := s.Model()

	// A divergent training run leaves NaN in the factors; the swap gate
	// must refuse it and keep the healthy generation serving.
	poisoned := before.Clone()
	fault.PoisonItemFactors(poisoned, 5, 3)
	if err := s.Install(poisoned, InstallOpts{Folded: KeepFoldedSeq}); err == nil {
		t.Fatal("poisoned model accepted")
	}
	if s.Model() != before || s.Generation() != 0 {
		t.Fatalf("poisoned swap disturbed the served model: generation = %d", s.Generation())
	}
	if got := s.reloadRejected.Value(); got != 1 {
		t.Errorf("clapf_model_reload_rejected_total = %d, want 1", got)
	}

	// The same poison arriving through the file path (SIGHUP reload): the
	// file loads and checksums fine — NaN is a valid bit pattern — so only
	// the finiteness gate stands between it and production.
	dir := t.TempDir()
	path := filepath.Join(dir, "poisoned.clapf")
	if err := store.SaveFile(path, poisoned); err != nil {
		t.Fatal(err)
	}
	if err := s.ReloadFromFile(path); err == nil {
		t.Fatal("poisoned file reload accepted")
	}
	if s.Model() != before || s.Generation() != 0 {
		t.Errorf("poisoned reload disturbed the served model: generation = %d", s.Generation())
	}
	if got := s.reloadRejected.Value(); got != 2 {
		t.Errorf("clapf_model_reload_rejected_total = %d, want 2", got)
	}
	if got := s.reloadFail.Value(); got != 1 {
		t.Errorf("reload fail counter = %d, want 1", got)
	}

	// Construction refuses a poisoned model outright.
	if _, err := New(poisoned, train); err == nil {
		t.Error("New accepted a poisoned model")
	}

	// The healthy generation still answers.
	rec, _ := get(t, s.Handler(), "/recommend?user=1&k=3")
	if rec.Code != http.StatusOK {
		t.Errorf("post-rejection request: status = %d", rec.Code)
	}
}
