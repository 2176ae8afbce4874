package cluster

import (
	"sort"
	"sync"
	"testing"
	"time"

	"clapf/internal/mathx"
)

func TestBackoffDelayFullJitter(t *testing.T) {
	rng := newLockedRNG(7)
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	for attempt := 0; attempt < 6; attempt++ {
		ceil := base << uint(attempt)
		if ceil > cap {
			ceil = cap
		}
		for i := 0; i < 200; i++ {
			d := backoffDelay(rng, base, cap, attempt)
			if d < 0 || d >= ceil {
				t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, ceil)
			}
		}
	}
}

// A huge attempt number must clamp to cap, not overflow the shift into a
// negative (or zero) ceiling.
func TestBackoffDelayShiftOverflow(t *testing.T) {
	rng := newLockedRNG(7)
	for i := 0; i < 100; i++ {
		d := backoffDelay(rng, 10*time.Millisecond, time.Second, 62)
		if d < 0 || d >= time.Second {
			t.Fatalf("overflowing attempt: delay %v outside [0, 1s)", d)
		}
	}
	if d := backoffDelay(rng, 0, time.Second, 3); d != 0 {
		t.Errorf("zero base produced delay %v", d)
	}
}

func TestLatencyTrackerQuantile(t *testing.T) {
	lt := newLatencyTracker(100)
	if got := lt.Quantile(0.95, 10, 42*time.Millisecond); got != 42*time.Millisecond {
		t.Errorf("cold tracker returned %v, want the fallback", got)
	}
	for i := 1; i <= 100; i++ {
		lt.Observe(time.Duration(i) * time.Millisecond)
	}
	p95 := lt.Quantile(0.95, 10, 0)
	if p95 < 90*time.Millisecond || p95 > 100*time.Millisecond {
		t.Errorf("p95 of 1..100ms = %v, want ~95ms", p95)
	}
	p50 := lt.Quantile(0.50, 10, 0)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Errorf("p50 of 1..100ms = %v, want ~50ms", p50)
	}
}

// The window is a ring: old observations age out, so a latency spike
// stops inflating the hedge delay once the window turns over.
func TestLatencyTrackerWindowTurnsOver(t *testing.T) {
	lt := newLatencyTracker(50)
	for i := 0; i < 50; i++ {
		lt.Observe(time.Second) // old spike
	}
	for i := 0; i < 50; i++ {
		lt.Observe(time.Millisecond) // new regime fills the window
	}
	if p95 := lt.Quantile(0.95, 10, 0); p95 != time.Millisecond {
		t.Errorf("p95 after turnover = %v, want 1ms", p95)
	}
}

// naiveTracker is the reference the sorted mirror replaced: a plain ring,
// copied and fully sorted on every query.
type naiveTracker struct {
	buf     []time.Duration
	next, n int
}

func (t *naiveTracker) Observe(d time.Duration) {
	t.buf[t.next] = d
	t.next = (t.next + 1) % len(t.buf)
	if t.n < len(t.buf) {
		t.n++
	}
}

func (t *naiveTracker) Quantile(q float64, minSamples int, fallback time.Duration) time.Duration {
	if t.n < minSamples || t.n == 0 {
		return fallback
	}
	tmp := append([]time.Duration(nil), t.buf[:t.n]...)
	sort.Slice(tmp, func(a, b int) bool { return tmp[a] < tmp[b] })
	rank := int(q*float64(len(tmp))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(tmp) {
		rank = len(tmp) - 1
	}
	return tmp[rank]
}

// The tracker must answer every query with exactly the value a full sort
// of the window gives, for any interleaving of observations and queries:
// hedging decisions are not allowed to move with how the p95 is kept.
func TestLatencyTrackerMatchesNaive(t *testing.T) {
	const fallback = -7 * time.Nanosecond // no observation is negative
	rng := mathx.NewRNG(18)
	steps := 0
	for _, window := range []int{1, 2, 50, 512} {
		lt, ref := newLatencyTracker(window), &naiveTracker{buf: make([]time.Duration, window)}
		// Three and a half turns of the window: cold, filling, wrapped.
		for i := 0; i < 3*window+window/2+8; i++ {
			// A narrow value range forces duplicates, the evicted sample's
			// twins included; now and then a spike far outside it.
			d := time.Duration(rng.Intn(40)) * time.Microsecond
			if rng.Intn(16) == 0 {
				d = time.Duration(rng.Intn(1 << 30))
			}
			lt.Observe(d)
			ref.Observe(d)
			for _, q := range []float64{0.5, 0.95, 1} {
				for _, minSamples := range []int{0, 32, window, window + 1} {
					got, want := lt.Quantile(q, minSamples, fallback), ref.Quantile(q, minSamples, fallback)
					if got != want {
						t.Fatalf("window %d, after %d observations: Quantile(%v, %d) = %v, full sort says %v",
							window, i+1, q, minSamples, got, want)
					}
					steps++
				}
			}
		}
	}
	if steps < 10000 {
		t.Fatalf("only %d steps compared, want >= 10000", steps)
	}
}

// On a full window the hedge delay costs no allocation, neither to record
// a sample nor to read the quantile.
func TestLatencyTrackerAllocatesNothing(t *testing.T) {
	lt := newLatencyTracker(512)
	rng := mathx.NewRNG(3)
	for i := 0; i < 512; i++ {
		lt.Observe(time.Duration(rng.Intn(1000)) * time.Microsecond)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		lt.Observe(time.Duration(rng.Intn(1000)) * time.Microsecond)
		sinkDuration = lt.Quantile(0.95, 32, time.Second)
	})
	if allocs != 0 {
		t.Errorf("Observe + Quantile allocate %v times per call, want 0", allocs)
	}
}

var sinkDuration time.Duration

// Every attempt goroutine observes and every request reads: under the race
// detector, concurrent use must stay clean and every answer must be a
// value some observer put in.
func TestLatencyTrackerConcurrent(t *testing.T) {
	lt := newLatencyTracker(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				lt.Observe(time.Duration(1+(g*2000+i)%97) * time.Microsecond)
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if d := lt.Quantile(0.95, 1, time.Microsecond); d < time.Microsecond || d > 97*time.Microsecond {
					t.Errorf("Quantile = %v, outside every observed value", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := lt.Quantile(1, 64, 0); got == 0 {
		t.Error("window not full after 8000 observations")
	}
}
