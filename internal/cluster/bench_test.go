package cluster

import (
	"context"
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

// routedReadFixture is a default router's handler over three loopback
// shards that answer a canned top-10 at once, with connections up and the
// latency window full, and requests for it whose contexts can be canceled,
// as a server's are.
func routedReadFixture(tb testing.TB) (http.Handler, []*http.Request) {
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
		tb.Cleanup(ts.Close)
		cfg.Shards = append(cfg.Shards, ShardConfig{Name: fmt.Sprintf("shard-%d", i), URL: ts.URL})
	}
	r, err := NewRouter(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	h := r.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	reqs := make([]*http.Request, 256)
	for u := range reqs {
		reqs[u] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/recommend?user=%d&k=10", u), nil).WithContext(ctx)
	}
	for i := 0; i < 600; i++ {
		routedRead(tb, h, reqs[i%len(reqs)])
	}
	return h, reqs
}

func routedRead(tb testing.TB, h http.Handler, req *http.Request) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkRoutedRecommend is the router's share of a healthy read: the
// handler (parse, ring, hedged attempt, scan, label splice) over three
// loopback shards, so what is left is the hop itself. Read it at -cpu 1 for
// CPU per read: with a second core idle, the wake-ups of the stub shards'
// threads are most of the wall clock and hide it.
func BenchmarkRoutedRecommend(b *testing.B) {
	h, reqs := routedReadFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routedRead(b, h, reqs[i%len(reqs)])
	}
}

// TestRoutedReadAllocations holds the healthy read where the hop budget put
// it. The count is the process's, as the benchmark's allocs/op is: router,
// recorder and the stub shard's own HTTP server together, 129 while the
// router went through http.Client. A goroutine, channel, derived context or
// header map back on the per-read path shows here.
func TestRoutedReadAllocations(t *testing.T) {
	h, reqs := routedReadFixture(t)
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		routedRead(t, h, reqs[i%len(reqs)])
		i++
	}); n > 95 {
		t.Errorf("a healthy routed read allocates %v times, want at most 95", n)
	}
}
