package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"clapf/internal/obs"
	"clapf/internal/retrieval"
)

// expositionLine matches one sample line: name{labels} value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// scrape fetches /metrics through the full handler and parses every
// sample line, failing the test on malformed exposition output.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(strings.Replace(line[sp+1:], "+Inf", "Inf", 1), 64)
		if err != nil {
			t.Errorf("bad value in %q: %v", line, err)
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

func TestMetricsEndpointCountsRequests(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	cases := []struct {
		path string
		n    int
		code string
	}{
		{"/recommend?user=3&k=5", 3, "200"},
		{"/similar?item=5&k=4", 2, "200"},
		{"/recommend?user=boom", 1, "400"},
		{"/healthz", 1, "200"},
		{"/definitely/not/routed", 1, "404"},
	}
	for _, c := range cases {
		for i := 0; i < c.n; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
		}
	}

	samples := scrape(t, h)
	wantCounters := map[string]float64{
		`clapf_http_requests_total{path="/recommend",code="200"}`: 3,
		`clapf_http_requests_total{path="/similar",code="200"}`:   2,
		`clapf_http_requests_total{path="/recommend",code="400"}`: 1,
		`clapf_http_requests_total{path="/healthz",code="200"}`:   1,
		`clapf_http_requests_total{path="other",code="404"}`:      1,
	}
	for k, v := range wantCounters {
		if samples[k] != v {
			t.Errorf("%s = %v, want %v", k, samples[k], v)
		}
	}

	// Latency histograms: every completed request lands in some bucket,
	// so per-endpoint count matches requests and +Inf is cumulative-total.
	for _, ep := range []struct {
		path string
		n    float64
	}{{"/recommend", 4}, {"/similar", 2}} {
		count := samples[fmt.Sprintf(`clapf_http_request_duration_seconds_count{path=%q}`, ep.path)]
		if count != ep.n {
			t.Errorf("latency count for %s = %v, want %v", ep.path, count, ep.n)
		}
		inf := samples[fmt.Sprintf(`clapf_http_request_duration_seconds_bucket{path=%q,le="+Inf"}`, ep.path)]
		if inf != ep.n {
			t.Errorf("+Inf bucket for %s = %v, want %v", ep.path, inf, ep.n)
		}
		sum := samples[fmt.Sprintf(`clapf_http_request_duration_seconds_sum{path=%q}`, ep.path)]
		if sum <= 0 {
			t.Errorf("latency sum for %s = %v, want > 0", ep.path, sum)
		}
	}

	// Model gauges ride along on the same scrape.
	if samples["clapf_model_users"] != 50 || samples["clapf_model_items"] != 80 || samples["clapf_model_dim"] != 8 {
		t.Errorf("model gauges wrong: users %v items %v dim %v",
			samples["clapf_model_users"], samples["clapf_model_items"], samples["clapf_model_dim"])
	}
	if samples["clapf_uptime_seconds"] < 0 {
		t.Errorf("uptime = %v", samples["clapf_uptime_seconds"])
	}
}

func TestHealthzEnriched(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	// Complete some requests first so requests_total has something to say.
	for i := 0; i < 3; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/recommend?user=1&k=2", nil))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" {
		t.Errorf("status = %q", hr.Status)
	}
	if hr.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", hr.UptimeSeconds)
	}
	if hr.RequestsTotal != 3 {
		t.Errorf("requests_total = %d, want 3 (the 3 completed /recommend calls)", hr.RequestsTotal)
	}
}

func TestWriteJSONEncodeErrorLoggedAndCounted(t *testing.T) {
	s, _ := testServer(t)
	var logBuf bytes.Buffer
	s.SetLogger(obs.NewTextLogger(&logBuf, slog.LevelInfo))

	rec := httptest.NewRecorder()
	s.writeJSON(context.Background(), rec, http.StatusOK, math.NaN()) // json: unsupported value
	if got := s.encodeErrors.Value(); got != 1 {
		t.Errorf("encode errors = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "response encode failed") {
		t.Errorf("encode error not logged: %q", logBuf.String())
	}

	samples := scrape(t, s.Handler())
	if samples["clapf_encode_errors_total"] != 1 {
		t.Errorf("clapf_encode_errors_total = %v, want 1", samples["clapf_encode_errors_total"])
	}
}

func TestSetLoggerNilRestoresNop(t *testing.T) {
	s, _ := testServer(t)
	s.SetLogger(nil)
	rec := httptest.NewRecorder()
	s.writeJSON(context.Background(), rec, http.StatusOK, math.NaN()) // must not panic
	if got := s.encodeErrors.Value(); got != 1 {
		t.Errorf("encode errors = %d, want 1", got)
	}
}

// TestIndexInstallSeries: every install in IVF mode is either a build —
// one observation in clapf_index_build_seconds — or a reuse, counted in
// clapf_index_reused_total, and says which in one Info line.
func TestIndexInstallSeries(t *testing.T) {
	s, _ := testServer(t)
	var logBuf bytes.Buffer
	s.SetLogger(obs.NewTextLogger(&logBuf, slog.LevelInfo))
	h := s.Handler()
	expect := func(when string, built, reused float64) {
		t.Helper()
		samples := scrape(t, h)
		if got := samples["clapf_index_build_seconds_count"]; got != built {
			t.Errorf("%s: clapf_index_build_seconds_count = %v, want %v", when, got, built)
		}
		if got := samples[`clapf_index_build_seconds_bucket{le="+Inf"}`]; got != built {
			t.Errorf("%s: +Inf bucket = %v, want %v", when, got, built)
		}
		if got := samples["clapf_index_reused_total"]; got != reused {
			t.Errorf("%s: clapf_index_reused_total = %v, want %v", when, got, reused)
		}
	}
	expect("exact mode", 0, 0)
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 8}); err != nil {
		t.Fatal(err)
	}
	expect("after SetRetrieval(ivf)", 1, 0)
	if err := s.Install(s.Model().Clone(), InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	expect("after installing the same item half", 1, 1)
	moved := s.Model().Clone()
	moved.AddBias(0, 1)
	if err := s.Install(moved, InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	expect("after installing a changed item half", 2, 1)
	if sum := scrape(t, h)["clapf_index_build_seconds_sum"]; sum <= 0 {
		t.Errorf("clapf_index_build_seconds_sum = %v, want > 0", sum)
	}
	logs := logBuf.String()
	if strings.Count(logs, "ivf index built") != 2 || strings.Count(logs, "ivf index reused") != 1 {
		t.Errorf("want two built lines and one reused line, got:\n%s", logs)
	}
	if !strings.Contains(logs, "cells=8") || !strings.Contains(logs, "items=80") || !strings.Contains(logs, "seconds=") {
		t.Errorf("built line lacks cells/items/seconds:\n%s", logs)
	}
}
