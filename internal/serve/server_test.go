package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"clapf/internal/core"
	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
	"clapf/internal/sampling"
)

func testServer(t testing.TB) (*Server, *dataset.Dataset) {
	t.Helper()
	w, err := datagen.Generate(datagen.Profile{
		Name: "srv", Users: 50, Items: 80, Pairs: 1200,
		ZipfExp: 0.6, Dim: 4, Affinity: 6,
	}, mathx.NewRNG(81))
	if err != nil {
		t.Fatal(err)
	}
	train := w.Data
	cfg := core.DefaultConfig(sampling.MAP, train.NumPairs())
	cfg.Dim = 8
	cfg.Steps = 20000
	cfg.Seed = 82
	tr, err := core.NewTrainer(cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	s, err := New(tr.Model(), train)
	if err != nil {
		t.Fatal(err)
	}
	return s, train
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, RecommendResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body RecommendResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON from %s: %v", path, err)
		}
	}
	return rec, body
}

func TestNewValidation(t *testing.T) {
	s, train := testServer(t)
	if _, err := New(nil, train); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(s.Model(), nil); err == nil {
		t.Error("nil dataset accepted")
	}
	other := mf.MustNew(mf.Config{NumUsers: 2, NumItems: 2, Dim: 2})
	if _, err := New(other, train); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Users != 50 || h.Items != 80 || h.Dim != 8 {
		t.Errorf("health = %+v", h)
	}
}

func TestRecommendKnownUser(t *testing.T) {
	s, train := testServer(t)
	rec, body := get(t, s.Handler(), "/recommend?user=3&k=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if len(body.Items) != 7 {
		t.Fatalf("got %d items", len(body.Items))
	}
	if body.User == nil || *body.User != 3 {
		t.Error("user echo missing")
	}
	for i, it := range body.Items {
		if train.IsPositive(3, it.Item) {
			t.Errorf("recommended already-observed item %d", it.Item)
		}
		if i > 0 && body.Items[i-1].Score < it.Score {
			t.Error("items not score-descending")
		}
	}
}

func TestRecommendColdStart(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s.Handler(), "/recommend?items=1,2,3&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if len(body.Items) != 5 {
		t.Fatalf("got %d items", len(body.Items))
	}
	for _, it := range body.Items {
		if it.Item == 1 || it.Item == 2 || it.Item == 3 {
			t.Errorf("history item %d recommended back", it.Item)
		}
	}
	if body.User != nil {
		t.Error("cold-start response should not echo a user id")
	}
}

func TestSimilar(t *testing.T) {
	s, _ := testServer(t)
	rec, body := get(t, s.Handler(), "/similar?item=5&k=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if len(body.Items) != 4 {
		t.Fatalf("got %d items", len(body.Items))
	}
	for _, it := range body.Items {
		if it.Item == 5 {
			t.Error("anchor item in its own neighbors")
		}
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	cases := []string{
		"/recommend",                // no user or items
		"/recommend?user=999",       // out of range
		"/recommend?user=abc",       // non-numeric
		"/recommend?user=1&items=2", // both
		"/recommend?user=1&k=0",     // bad k
		"/recommend?user=1&k=x",     // bad k
		"/recommend?items=",         // empty list
		"/recommend?items=1,boom",   // bad item
		"/recommend?items=1,9999",   // item out of range
		"/similar?item=abc",         // bad item
		"/similar?item=-1",          // negative
	}
	for _, path := range cases {
		rec, _ := get(t, h, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

func TestKCapped(t *testing.T) {
	s, _ := testServer(t)
	s.MaxK = 3
	rec, body := get(t, s.Handler(), "/recommend?user=0&k=50")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if len(body.Items) != 3 {
		t.Errorf("k cap not applied: got %d items", len(body.Items))
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/recommend?user=1", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rec.Code)
	}
}

// TestWireFormatPinned: Item is rank.Entry, so the selector's entries are
// encoded as they are. The bodies are the literal bytes that serve.Item produced
// when it was a tagged struct of its own: field names, order, number formatting,
// [] for an empty list and no items key on a failed batch entry.
func TestWireFormatPinned(t *testing.T) {
	u := int32(7)
	top := []rank.Entry{{Item: 3, Score: 0.5}, {Item: 41, Score: -1.25e-7}}
	for _, c := range []struct {
		v    any
		want string
	}{
		{RecommendResponse{User: &u, Items: top},
			`{"user":7,"items":[{"item":3,"score":0.5},{"item":41,"score":-1.25e-7}]}`},
		{RecommendResponse{Items: []rank.Entry{}}, `{"items":[]}`},
		{BatchResponse{Results: []BatchResult{{User: &u, Items: top[:1]}, {Items: top[1:]}, {Error: "invalid k -1"}}},
			`{"results":[{"user":7,"items":[{"item":3,"score":0.5}]},{"items":[{"item":41,"score":-1.25e-7}]},{"error":"invalid k -1"}]}`},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%T encodes as\n%s\nwant\n%s", c.v, got, c.want)
		}
	}
}
