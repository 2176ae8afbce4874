package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"clapf/internal/mathx"
	"clapf/internal/serve"
)

// BenchmarkHedgeDelay is what one routed read pays for its hedge delay on
// a warm router: one sample into a full default window, one p95 out.
func BenchmarkHedgeDelay(b *testing.B) {
	lt := newLatencyTracker(512)
	rng := mathx.NewRNG(1)
	samples := make([]time.Duration, 4096)
	for i := range samples {
		samples[i] = time.Duration(50+rng.Intn(400)) * time.Microsecond
	}
	for _, d := range samples[:512] {
		lt.Observe(d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.Observe(samples[i%len(samples)])
		sinkDuration = lt.Quantile(0.95, 32, 50*time.Millisecond)
	}
}

// BenchmarkScanRecommend is what the router pays to accept a top-10 for
// relaying, at the 16–17 significant digits real scores carry.
func BenchmarkScanRecommend(b *testing.B) {
	items := make([]serve.Item, 10)
	rng := mathx.NewRNG(3)
	for i := range items {
		items[i] = serve.Item{Item: int32(1000 * (i + 1)), Score: rng.NormFloat64()}
	}
	body := shardBody(b, ptr(12345), items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !scanRecommend(body) {
			b.Fatalf("declined %q", body)
		}
	}
}

// BenchmarkRoutedRecommend is the router's share of a healthy read: the
// handler (parse, ring, hedged attempt, scan, label splice) over three
// loopback shards that answer a canned top-10 at once, so what is left is
// the hop itself.
func BenchmarkRoutedRecommend(b *testing.B) {
	const payload = `{"user":7,"items":[{"item":11,"score":1.5},{"item":12,"score":1.4},{"item":13,"score":1.3},` +
		`{"item":14,"score":1.2},{"item":15,"score":1.1},{"item":16,"score":1},{"item":17,"score":0.9},` +
		`{"item":18,"score":0.8},{"item":19,"score":0.7},{"item":20,"score":0.6}]}` + "\n"
	stub := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(payload))
	})
	var cfg Config
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(stub)
		b.Cleanup(ts.Close)
		cfg.Shards = append(cfg.Shards, ShardConfig{Name: fmt.Sprintf("shard-%d", i), URL: ts.URL})
	}
	r, err := NewRouter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := r.Handler()
	reqs := make([]*http.Request, 256)
	for u := range reqs {
		reqs[u] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/recommend?user=%d&k=10", u), nil)
	}
	get := func(i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[i%len(reqs)])
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < 600; i++ { // connections up, latency window full
		get(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(i)
	}
}
