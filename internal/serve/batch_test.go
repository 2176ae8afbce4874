package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func postBatch(t *testing.T, h http.Handler, req BatchRequest) (*httptest.ResponseRecorder, BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBatchRaw(t, h, string(body))
}

func postBatchRaw(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, BatchResponse) {
	t.Helper()
	httpReq := httptest.NewRequest(http.MethodPost, "/recommend/batch", strings.NewReader(body))
	httpReq.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httpReq)
	var resp BatchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad batch JSON: %v: %s", err, rec.Body.String())
		}
	}
	return rec, resp
}

func i32(v int32) *int32 { return &v }

// The batch endpoint's golden property: every entry's answer is exactly
// what the single-request path returns for the same query — same items,
// same scores, same order — whether the entry is a known user, a repeated
// user sharing a score row, or a cold-start history.
func TestBatchMatchesSinglePath(t *testing.T) {
	s, _ := testServer(t)
	s.SetCacheSize(0) // compare pure computation, not cache plumbing
	h := s.Handler()

	rec, resp := postBatch(t, h, BatchRequest{Requests: []BatchEntry{
		{User: i32(3), K: 7},
		{User: i32(11)},      // default k = 10
		{User: i32(3), K: 7}, // duplicate entry shares a score row
		{Items: []int32{1, 2, 3}, K: 5},
		{Items: []int32{3, 3, 5}, K: 2}, // history with duplicates
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(resp.Results))
	}

	singles := []string{
		"/recommend?user=3&k=7",
		"/recommend?user=11",
		"/recommend?user=3&k=7",
		"/recommend?items=1,2,3&k=5",
		"/recommend?items=3,3,5&k=2",
	}
	for i, path := range singles {
		_, want := get(t, h, path)
		got := resp.Results[i]
		if got.Error != "" {
			t.Fatalf("entry %d: unexpected error %q", i, got.Error)
		}
		if len(got.Items) != len(want.Items) {
			t.Fatalf("entry %d: %d items, single path %d", i, len(got.Items), len(want.Items))
		}
		for j := range want.Items {
			if got.Items[j] != want.Items[j] {
				t.Errorf("entry %d rank %d: batch %+v != single %+v", i, j, got.Items[j], want.Items[j])
			}
		}
	}
	// Known-user entries echo the user id; cold-start entries do not.
	if resp.Results[0].User == nil || *resp.Results[0].User != 3 {
		t.Error("known-user entry missing user echo")
	}
	if resp.Results[3].User != nil {
		t.Error("cold-start entry echoed a user id")
	}
}

// One bad entry must not fail the batch: errors are reported in place and
// the rest still get answers.
func TestBatchPerEntryErrors(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	rec, resp := postBatch(t, h, BatchRequest{Requests: []BatchEntry{
		{User: i32(999)},                  // out of range
		{User: i32(1), Items: []int32{2}}, // both
		{},                                // neither
		{User: i32(1), K: -3},             // bad k
		{Items: []int32{4000}},            // history item out of range
		{User: i32(1), K: 3},              // fine
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for i := 0; i < 5; i++ {
		if resp.Results[i].Error == "" {
			t.Errorf("entry %d: expected an error", i)
		}
		if len(resp.Results[i].Items) != 0 {
			t.Errorf("entry %d: items alongside error", i)
		}
	}
	if resp.Results[5].Error != "" || len(resp.Results[5].Items) != 3 {
		t.Errorf("valid entry after errors: %+v", resp.Results[5])
	}
}

func TestBatchRequestLimits(t *testing.T) {
	s, _ := testServer(t)
	s.MaxBatch = 3
	h := s.Handler()

	rec, _ := postBatchRaw(t, h, `{"requests":[]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", rec.Code)
	}
	rec, _ = postBatchRaw(t, h, `{"requests`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", rec.Code)
	}
	over := BatchRequest{Requests: make([]BatchEntry, 4)}
	for i := range over.Requests {
		over.Requests[i] = BatchEntry{User: i32(1)}
	}
	rec, _ = postBatch(t, h, over)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("over MaxBatch: status = %d, want 400", rec.Code)
	}

	// GET is not routed for the batch endpoint.
	getRec := httptest.NewRecorder()
	h.ServeHTTP(getRec, httptest.NewRequest(http.MethodGet, "/recommend/batch", nil))
	if getRec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status = %d, want 405", getRec.Code)
	}
}

// Batch entries go through the cache like single requests: a primed entry
// is answered without rescoring, and batch-computed results prime the
// cache for the single path.
func TestBatchUsesCache(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	get(t, h, "/recommend?user=5&k=4") // prime via single path
	_, resp := postBatch(t, h, BatchRequest{Requests: []BatchEntry{
		{User: i32(5), K: 4}, // hit
		{User: i32(6), K: 4}, // miss, fills cache
	}})
	if s.cacheHits.Value() != 1 {
		t.Errorf("hits = %d, want 1", s.cacheHits.Value())
	}
	misses := s.cacheMisses.Value()
	get(t, h, "/recommend?user=6&k=4") // now a hit, primed by the batch
	if s.cacheHits.Value() != 2 {
		t.Errorf("hits after single read of batch-primed user = %d, want 2", s.cacheHits.Value())
	}
	if s.cacheMisses.Value() != misses {
		t.Errorf("misses moved %d -> %d on a primed read", misses, s.cacheMisses.Value())
	}
	if len(resp.Results[0].Items) != 4 || len(resp.Results[1].Items) != 4 {
		t.Error("cached/missed batch entries returned wrong item counts")
	}

	// A user twice in one batch: the first entry misses and fills, and the
	// second is a hit on what the first filled.
	hits, misses := s.cacheHits.Value(), s.cacheMisses.Value()
	_, resp = postBatch(t, h, BatchRequest{Requests: []BatchEntry{
		{User: i32(7), K: 4}, // miss, fills cache
		{User: i32(7), K: 4}, // hit
	}})
	if s.cacheHits.Value() != hits+1 || s.cacheMisses.Value() != misses+1 {
		t.Errorf("a repeated uncached user moved hits %d -> %d and misses %d -> %d, want one of each",
			hits, s.cacheHits.Value(), misses, s.cacheMisses.Value())
	}
	first, second := resp.Results[0].Items, resp.Results[1].Items
	if len(first) != 4 || !slices.Equal(first, second) {
		t.Errorf("repeated user's entries differ: %v and %v", first, second)
	}
}

// A model with a non-finite parameter must not poison rankings: the
// poisoned items are dropped from every path (single, batch, cold-start)
// and the damage is visible in clapf_nonfinite_scores_total.
func TestNonFiniteScoresDroppedAndCounted(t *testing.T) {
	s, train := testServer(t)
	s.SetCacheSize(0)
	h := s.Handler()
	m := s.Model()

	// Poison two items the test users have NOT interacted with — train
	// positives are excluded from ranking before the finite check, so a
	// poisoned positive would never reach the drop counter.
	var poison []int32
	for i := int32(m.NumItems()) - 1; i >= 0 && len(poison) < 2; i-- {
		if !train.IsPositive(2, i) && !train.IsPositive(4, i) {
			poison = append(poison, i)
		}
	}
	if len(poison) != 2 {
		t.Fatal("could not find two unseen items to poison")
	}
	m.ItemFactors(poison[0])[0] = math.NaN()
	m.ItemFactors(poison[1])[0] = math.Inf(1)
	poisoned := func(it int32) bool { return it == poison[0] || it == poison[1] }

	rec, body := get(t, h, "/recommend?user=2&k=79")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	for _, it := range body.Items {
		if poisoned(it.Item) {
			t.Errorf("poisoned item %d served (score %v)", it.Item, it.Score)
		}
		if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
			t.Errorf("non-finite score %v in response", it.Score)
		}
	}
	if got := s.nonfinite.Value(); got != 2 {
		t.Errorf("clapf_nonfinite_scores_total = %d after a poisoned single request, want 2", got)
	}

	// The batch path counts too.
	beforeCount := s.nonfinite.Value()
	_, resp := postBatch(t, h, BatchRequest{Requests: []BatchEntry{{User: i32(4), K: 50}}})
	for _, it := range resp.Results[0].Items {
		if poisoned(it.Item) {
			t.Errorf("poisoned item %d served via batch", it.Item)
		}
	}
	if s.nonfinite.Value() <= beforeCount {
		t.Error("batch path did not count non-finite drops")
	}

	samples := scrape(t, h)
	if samples["clapf_nonfinite_scores_total"] == 0 {
		t.Error("clapf_nonfinite_scores_total missing from /metrics")
	}
}

// Probe exemption through the REAL handler chain: with the shed semaphore
// saturated, /healthz, /readyz, /metrics, and /debug/traces still answer
// 200 while recommendation traffic is shed — an overloaded-but-healthy
// server must not be killed by its orchestrator, and the flight recorder
// is most valuable exactly when the server is drowning.
func TestProbesExemptUnderOverloadFullStack(t *testing.T) {
	s, _ := testServer(t)
	s.MaxInFlight = 2
	h := s.Handler()
	if s.shedSem == nil {
		t.Fatal("shed semaphore not installed by Handler")
	}
	s.shedSem <- struct{}{} // saturate: both slots held
	s.shedSem <- struct{}{}
	defer func() { <-s.shedSem; <-s.shedSem }()

	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/traces"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s under overload: status = %d, want 200", path, rec.Code)
		}
	}
	rec, _ := get(t, h, "/recommend?user=1&k=2")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/recommend under overload: status = %d, want 503", rec.Code)
	}
	// The shed 503 carries a jittered Retry-After in [1, 3] so shed
	// clients spread their retries instead of returning as one wave.
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 3 {
		t.Errorf("shed Retry-After = %q, want an integer in [1, 3]", rec.Header().Get("Retry-After"))
	}
	batchRec, _ := postBatchRaw(t, h, `{"requests":[{"user":1}]}`)
	if batchRec.Code != http.StatusServiceUnavailable {
		t.Errorf("/recommend/batch under overload: status = %d, want 503", batchRec.Code)
	}
}

// The Retry-After jitter must actually vary — a constant would recreate
// the synchronized retry wave — while staying within its 1–3s window.
func TestRetryAfterJitterSpread(t *testing.T) {
	s, _ := testServer(t)
	seen := map[int]int{}
	for i := 0; i < 300; i++ {
		v := s.retryAfterSeconds()
		if v < 1 || v > 3 {
			t.Fatalf("retryAfterSeconds = %d, want in [1, 3]", v)
		}
		seen[v]++
	}
	if len(seen) < 2 {
		t.Errorf("300 draws produced a single value %v; jitter is not jittering", seen)
	}
}
