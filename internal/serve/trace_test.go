package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clapf/internal/obs"
	"clapf/internal/obs/trace"
	"clapf/internal/retrieval"
)

func debugTraces(t *testing.T, h http.Handler, query string) trace.DebugResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces returned %d", rec.Code)
	}
	var resp trace.DebugResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad /debug/traces JSON: %v", err)
	}
	return resp
}

// TestTraceSmoke is the scripts/check.sh trace gate: a real request must
// land in the flight recorder with its stage spans, and the per-stage
// histogram must be populated in /metrics.
func TestTraceSmoke(t *testing.T) {
	s, _ := testServer(t)
	s.SetCacheSize(0) // force the full merge/score pipeline
	s.Tracer().SetSampleRate(1)
	h := s.Handler()

	rec, _ := get(t, h, "/recommend?user=1&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("recommend returned %d", rec.Code)
	}

	resp := debugTraces(t, h, "")
	if len(resp.Traces) == 0 {
		t.Fatal("no trace retained at sample rate 1")
	}
	var reqTrace *trace.Record
	for _, tr := range resp.Traces {
		if tr.Name == "/recommend" {
			reqTrace = tr
			break
		}
	}
	if reqTrace == nil {
		t.Fatalf("no /recommend trace in recorder: %+v", resp.Traces)
	}
	if reqTrace.Status != http.StatusOK || reqTrace.Bytes <= 0 {
		t.Errorf("trace status/bytes = %d/%d, want 200/>0", reqTrace.Status, reqTrace.Bytes)
	}
	stages := map[string]bool{}
	for _, sp := range reqTrace.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []string{"/recommend", "shed", "cache", "merge", "score", "encode"} {
		if !stages[want] {
			t.Errorf("stage %q missing from trace spans: %v", want, stages)
		}
	}
	if stages["topk"] {
		t.Errorf("exact mode still emits a topk stage; selection belongs to score: %v", stages)
	}
	if stages["probe"] {
		t.Errorf("exact mode emits a probe stage: %v", stages)
	}
	if reqTrace.Spans[0].Parent != -1 {
		t.Errorf("root span parent = %d, want -1", reqTrace.Spans[0].Parent)
	}

	// The same request under IVF: the one stage vocabulary, with the
	// exclusion merge billed to "merge" (not folded into "score") and
	// "probe" between it and "score".
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 8}); err != nil {
		t.Fatal(err)
	}
	if rec, _ := get(t, h, "/recommend?user=2&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("ivf recommend returned %d", rec.Code)
	}
	var ivfStages []string
	for _, tr := range debugTraces(t, h, "").Traces {
		if tr.Name != "/recommend" {
			continue
		}
		var got []string
		probed := false
		for _, sp := range tr.Spans {
			got = append(got, sp.Stage)
			probed = probed || sp.Stage == "probe"
		}
		if probed {
			ivfStages = got
		}
	}
	if ivfStages == nil {
		t.Fatal("no /recommend trace with a probe span after SetRetrieval(ivf)")
	}
	next := 0
	order := []string{"cache", "merge", "probe", "score", "cache", "encode"}
	for _, st := range ivfStages {
		if next < len(order) && st == order[next] {
			next++
		}
	}
	if next != len(order) {
		t.Errorf("ivf trace stages %v do not contain %v in order", ivfStages, order)
	}

	// The stage histogram must be visible in the Prometheus exposition.
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := mrec.Body.String()
	if !strings.Contains(body, `clapf_stage_duration_seconds_count{stage="score"}`) {
		t.Errorf("score stage histogram missing from /metrics")
	}
	if !strings.Contains(body, "clapf_traces_started_total") {
		t.Errorf("traces_started counter missing from /metrics")
	}
	for _, g := range []string{"clapf_goroutines", "clapf_heap_bytes", "clapf_gc_pause_seconds"} {
		if !strings.Contains(body, g) {
			t.Errorf("runtime gauge %s missing from /metrics", g)
		}
	}
}

// TestSlowRequestTailCapture proves tail-based retention: with head
// sampling off and the slow threshold below any real request, the
// request must still be captured, flagged "slow", logged, and carry an
// intact parent/child span tree.
func TestSlowRequestTailCapture(t *testing.T) {
	s, _ := testServer(t)
	s.SetCacheSize(0)
	var logBuf bytes.Buffer
	s.SetLogger(obs.NewTextLogger(&logBuf, slog.LevelInfo))
	s.Tracer().SetSampleRate(0)
	s.Tracer().SetSlowThreshold(time.Nanosecond)
	h := s.Handler()

	if rec, _ := get(t, h, "/recommend?user=2&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("recommend returned %d", rec.Code)
	}

	resp := debugTraces(t, h, "?keep=slow")
	var slow *trace.Record
	for _, tr := range resp.Traces {
		if tr.Name == "/recommend" {
			slow = tr
			break
		}
	}
	if slow == nil {
		t.Fatalf("slow request not tail-captured: %+v", resp.Traces)
	}
	childOfRoot := 0
	for i, sp := range slow.Spans {
		if i == 0 {
			continue
		}
		if sp.Parent < 0 || sp.Parent >= len(slow.Spans) {
			t.Errorf("span %d (%s) has out-of-range parent %d", i, sp.Stage, sp.Parent)
		}
		if sp.Parent == 0 {
			childOfRoot++
		}
	}
	if childOfRoot == 0 {
		t.Error("no span parents at the root: tree structure lost")
	}
	if !strings.Contains(logBuf.String(), "trace retained") {
		t.Errorf("slow request not logged:\n%s", logBuf.String())
	}
}

// TestErrorRequestTailCapture: a 5xx is always retained, head sampling
// notwithstanding. 4xx client errors are not tail-kept.
func TestErrorRequestTailCapture(t *testing.T) {
	s, _ := testServer(t)
	s.Tracer().SetSampleRate(0)
	h := s.Handler()

	// 400: not retained.
	if rec, _ := get(t, h, "/recommend?user=notanumber"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad request returned %d", rec.Code)
	}
	if resp := debugTraces(t, h, ""); len(resp.Traces) != 0 {
		t.Errorf("4xx retained: %+v", resp.Traces)
	}
}

// TestBatchEntrySpans: each batch entry gets its own span annotated with
// the entry index.
func TestBatchEntrySpans(t *testing.T) {
	s, _ := testServer(t)
	s.SetCacheSize(0)
	s.Tracer().SetSampleRate(1)
	h := s.Handler()

	u0, u1 := int32(1), int32(2)
	body, _ := json.Marshal(BatchRequest{Requests: []BatchEntry{
		{User: &u0, K: 3}, {User: &u1, K: 3},
	}})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/recommend/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch returned %d: %s", rec.Code, rec.Body.String())
	}

	resp := debugTraces(t, h, "")
	var batch *trace.Record
	for _, tr := range resp.Traces {
		if tr.Name == "/recommend/batch" {
			batch = tr
			break
		}
	}
	if batch == nil {
		t.Fatal("no batch trace retained")
	}
	notes := map[string]bool{}
	for _, sp := range batch.Spans {
		if sp.Stage == "entry" {
			notes[sp.Note] = true
		}
	}
	if !notes["0"] || !notes["1"] {
		t.Errorf("entry spans missing index notes: %v", notes)
	}
}

// TestInboundTraceparentPropagates: trace continuity through the full
// serve handler chain.
func TestInboundTraceparentPropagates(t *testing.T) {
	s, _ := testServer(t)
	s.Tracer().SetSampleRate(0)
	h := s.Handler()

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req := httptest.NewRequest(http.MethodGet, "/recommend?user=1&k=3", nil)
	req.Header.Set("traceparent", inbound)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("recommend returned %d", rec.Code)
	}

	// Sampled inbound flag forces retention despite rate 0; the retained
	// trace carries the caller's IDs.
	resp := debugTraces(t, h, "")
	found := false
	for _, tr := range resp.Traces {
		if tr.TraceID == "4bf92f3577b34da6a3ce929d0e0e4736" {
			found = true
			if tr.RemoteParent != "00f067aa0ba902b7" {
				t.Errorf("remote parent = %q", tr.RemoteParent)
			}
		}
	}
	if !found {
		t.Errorf("inbound trace ID not adopted/retained: %+v", resp.Traces)
	}
}

// TestSetTracingOffRemovesMiddleware: the untraced handler chain starts
// no traces and still serves correctly — the bench's baseline arm.
func TestSetTracingOffRemovesMiddleware(t *testing.T) {
	s, _ := testServer(t)
	s.SetTracing(false)
	s.Tracer().SetSampleRate(1)
	h := s.Handler()
	if rec, _ := get(t, h, "/recommend?user=1&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("untraced recommend returned %d", rec.Code)
	}
	if resp := debugTraces(t, h, ""); len(resp.Traces) != 0 || resp.RecordedTotal != 0 {
		t.Errorf("tracing off but traces recorded: %+v", resp)
	}
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(mrec.Body.String(), `clapf_traces_started_total 1`) {
		t.Error("tracing off but traces started")
	}
}

// TestSeriesCeiling exercises every endpoint (success and failure paths)
// plus the training-style stage observations and asserts the registry's
// total series count stays under a fixed ceiling — the metric-cardinality
// regression gate.
func TestSeriesCeiling(t *testing.T) {
	s, _ := testServer(t)
	s.Tracer().SetSampleRate(1)
	s.Tracer().SetSlowThreshold(time.Nanosecond) // exercise every keep reason
	h := s.Handler()

	u := int32(1)
	batchBody, _ := json.Marshal(BatchRequest{Requests: []BatchEntry{{User: &u, K: 3}}})
	reqs := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodGet, "/healthz", nil},
		{http.MethodGet, "/readyz", nil},
		{http.MethodGet, "/recommend?user=1&k=3", nil},
		{http.MethodGet, "/recommend?items=1,2&k=3", nil},
		{http.MethodGet, "/recommend?user=notanumber", nil},
		{http.MethodGet, "/similar?item=1&k=3", nil},
		{http.MethodGet, "/similar?item=notanumber", nil},
		{http.MethodPost, "/recommend/batch", batchBody},
		{http.MethodPost, "/recommend/batch", []byte("{garbage")},
		{http.MethodGet, "/metrics", nil},
		{http.MethodGet, "/debug/traces", nil},
		{http.MethodGet, "/completely/unknown/path/42", nil},
		{http.MethodGet, "/another/unknown", nil},
	}
	for _, r := range reqs {
		var req *http.Request
		if r.body != nil {
			req = httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
			req.Header.Set("Content-Type", "application/json")
		} else {
			req = httptest.NewRequest(r.method, r.path, nil)
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	// Stage observations from the training side share the same naming
	// budget when train and serve export into one registry.
	for _, stage := range []string{"train.sample", "train.risk", "train.update", "train.checkpoint"} {
		s.Tracer().ObserveStage(stage, time.Millisecond)
	}

	const ceiling = 512
	n := s.Registry().NumSeries()
	if n < 0 {
		t.Fatal("NumSeries failed to render the registry")
	}
	if n > ceiling {
		t.Errorf("registry exposes %d series, ceiling %d — label cardinality is leaking", n, ceiling)
	}
	t.Logf("registry series count: %d (ceiling %d)", n, ceiling)
}
