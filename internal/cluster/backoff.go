package cluster

import (
	"sort"
	"sync"
	"time"

	"clapf/internal/mathx"
)

// lockedRNG is a mutex-guarded xoshiro generator: the router jitters
// backoff sleeps from many request goroutines at once, and mathx.RNG is
// explicitly not concurrency-safe.
type lockedRNG struct {
	mu  sync.Mutex
	rng *mathx.RNG
}

func newLockedRNG(seed uint64) *lockedRNG {
	return &lockedRNG{rng: mathx.NewRNG(seed)}
}

// Float64 returns a uniform value in [0, 1).
func (r *lockedRNG) Float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// Intn returns a uniform integer in [0, n).
func (r *lockedRNG) Intn(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Intn(n)
}

// backoffDelay computes the sleep before retry attempt (0-based: the
// first retry is attempt 0) under exponential backoff with full jitter:
// uniform in [0, min(cap, base·2^attempt)). Full jitter — rather than
// base·2^attempt ± ε — is what actually decorrelates a burst of clients
// that all failed at the same instant (the AWS architecture blog's
// result: equal-or-better completion time with far fewer collisions).
func backoffDelay(rng *lockedRNG, base, cap time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << uint(attempt)
	if d > cap || d <= 0 { // d <= 0 guards shift overflow
		d = cap
	}
	return time.Duration(rng.Float64() * float64(d))
}

// latencyTracker keeps a fixed window of recent request latencies and
// answers quantile queries over it. The router derives its hedge delay
// from P95: hedging earlier than the tail wastes a duplicate request on
// work the primary would have finished anyway. Every read asks for that
// quantile and every answer moves the window by one sample, so the
// window is kept sorted as it turns instead of being sorted per query.
type latencyTracker struct {
	mu     sync.Mutex
	buf    []time.Duration // ring buffer, arrival order
	sorted []time.Duration // sorted[:n] holds the same n samples, ascending
	next   int
	n      int // filled entries, <= len(buf)
}

func newLatencyTracker(window int) *latencyTracker {
	if window < 1 {
		window = 1
	}
	return &latencyTracker{buf: make([]time.Duration, window), sorted: make([]time.Duration, window)}
}

// Observe records one request latency: the sample it evicts from a full
// window leaves the sorted mirror and d enters at its rank, one shift of
// the entries between the two positions.
func (t *latencyTracker) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, out := t.n, t.n // out is the slot vacated in sorted: past the end while filling
	if m == len(t.buf) {
		old := t.buf[t.next]
		out = sort.Search(m, func(k int) bool { return t.sorted[k] >= old })
	} else {
		t.n++
	}
	t.buf[t.next] = d
	t.next = (t.next + 1) % len(t.buf)
	in := sort.Search(m, func(k int) bool { return t.sorted[k] > d })
	if in > out {
		in--
		copy(t.sorted[out:in], t.sorted[out+1:in+1])
	} else {
		copy(t.sorted[in+1:out+1], t.sorted[in:out])
	}
	t.sorted[in] = d
}

// Quantile returns the q-th (0 < q <= 1) nearest-rank quantile of the
// window, or fallback while the window holds fewer than minSamples
// observations — a cold router has no latency history to derive a hedge
// delay from.
func (t *latencyTracker) Quantile(q float64, minSamples int, fallback time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < minSamples || t.n == 0 {
		return fallback
	}
	rank := int(q*float64(t.n)+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= t.n {
		rank = t.n - 1
	}
	return t.sorted[rank]
}
