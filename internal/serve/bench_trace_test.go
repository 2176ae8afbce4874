package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// Handler-level tracing cost, without the loopback-TCP noise of the
// benchmark's serve.trace_overhead_pct row: the delta between these two
// benchmarks is the per-request price of the trace middleware plus the
// stage spans on the full /recommend pipeline.
func benchRecommend(b *testing.B, traced bool) {
	s, _ := testServer(b)
	s.SetCacheSize(0) // priced path is the full merge/score pipeline
	s.SetTracing(traced)
	if traced {
		s.Tracer().SetSampleRate(0.01) // production default
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/recommend?user=1&k=10", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
	}
}

func BenchmarkRecommendUntraced(b *testing.B) { benchRecommend(b, false) }
func BenchmarkRecommendTraced(b *testing.B)   { benchRecommend(b, true) }
