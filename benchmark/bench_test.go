package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// A stalled request must be charged to the requests queued behind it, and
// the generator's own lateness must be reported beside it.
func TestOpenLoopChargesQueueWait(t *testing.T) {
	const stall = 60 * time.Millisecond
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	c, err := dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	reqs := make([]request, 20)
	for i := range reqs {
		reqs[i] = get("/x")
	}
	res := openLoop("stall", []*client{c}, reqs, 200) // one request every 5 ms
	if res.failed != 0 || res.sent != len(reqs) {
		t.Fatalf("sent %d failed %d", res.sent, res.failed)
	}
	// Request 5 (index 4) stalls; index 5 was due 5 ms later and had to
	// wait for the only connection.
	if got := res.ops[5].lat; got < float64(stall/time.Millisecond)-10 {
		t.Errorf("request behind the stall was charged %.1f ms, want about %d", got, (stall-5*time.Millisecond)/time.Millisecond)
	}
	if got := res.ops[1].lat; got > 20 {
		t.Errorf("request before the stall took %.1f ms", got)
	}
	if len(res.lateness) != len(reqs) {
		t.Fatalf("lateness has %d entries, want %d", len(res.lateness), len(reqs))
	}
	if late := res.latenessP99(); late > 20 {
		t.Errorf("generator lateness p99 %.1f ms: queue wait was booked as the generator's", late)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for n, want := range map[int]float64{19: 0.5, 40: 0.75, 100: 0.9, 200: 0.95, 1000: 0.99, 10000: 0.999} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
	// A slice too small for p95 makes slicedPercentile pool the slices.
	small := make([][]timed, 5)
	for i := range small {
		for j := 0; j < 50; j++ {
			small[i] = append(small[i], timed{lat: float64(i*50 + j)})
		}
	}
	if got := slicedPercentile(small, 0.95); got != 237 {
		t.Errorf("pooled p95 of 0..249 = %v, want 237", got)
	}
	// A failed operation sorts last and drags the tail to +Inf.
	failed := []float64{1, 2, math.Inf(1)}
	if got := percentile(failed, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failed operation = %v, want +Inf", got)
	}
}

// A window is cut into fifth-of-a-second slices unless that would leave a
// slice too few operations for a 95th percentile, and a phase joined from
// windows of different lengths still reports each slice's own rate.
func TestSlicesOfAWindow(t *testing.T) {
	for _, c := range []struct {
		ops  int
		span float64
		want int
	}{{1232, 0.77, 4}, {500, 0.77, 2}, {154, 0.77, 1}, {100000, 6, 30}, {0, 0, 1}} {
		if got := sliceCount(c.ops, c.span); got != c.want {
			t.Errorf("sliceCount(%d, %v) = %d, want %d", c.ops, c.span, got, c.want)
		}
	}
	window := func(span float64, n int) phaseResult {
		w := phaseResult{span: span}
		for i := 0; i < n; i++ {
			w.ops = append(w.ops, timed{at: span * float64(i) / float64(n), lat: 1})
		}
		return w
	}
	joined := join("x", []phaseResult{window(0.4, 400), window(0.8, 1600)})
	if len(joined.parts) != 6 || len(joined.partSpan) != 6 {
		t.Fatalf("joined phase has %d slices, want 2 + 4", len(joined.parts))
	}
	if got := joined.rate(); math.Abs(got-2000) > 10 { // an operation on a boundary may fall either side
		t.Errorf("best slice rate = %v, want 2000 (the second window's)", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := best([]float64{5, 1, 4, 2, 3}, true); got != 1 {
		t.Errorf("best(lower) = %v, want 1", got)
	}
	if got := best([]float64{5, 1, 4, 2, 3}, false); got != 5 {
		t.Errorf("best(higher) = %v, want 5", got)
	}
}

func TestStreamsRepeatPerSeed(t *testing.T) {
	for _, zipf := range []float64{0, 1.1} {
		a := newUserStream(7, 500, zipf).take(2000)
		b := newUserStream(7, 500, zipf).take(2000)
		c := newUserStream(8, 500, zipf).take(2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("zipf %v: same seed, different streams", zipf)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("zipf %v: different seeds, same stream", zipf)
		}
	}
	// Zipf(1.1) concentrates: the most drawn user takes far more than 1/n.
	counts := make(map[int32]int)
	for _, u := range newUserStream(1, 500, 1.1).take(20000) {
		counts[u]++
	}
	top := 0
	for _, n := range counts {
		if n > top {
			top = n
		}
	}
	if top < 20000/20 {
		t.Errorf("most drawn user has %d of 20000 draws; the stream is not skewed", top)
	}
}

// BENCHMARK.json repeats the metric tables; the two must not drift apart.
func TestManifestMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []entry                 `json:"end_to_end"`
		PerLayer  []entry                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, tables have %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s[%d]: manifest %+v, table %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
	if len(m.Workloads) != len(gatedWorkloads) {
		t.Fatalf("manifest has %d workloads, want %d", len(m.Workloads), len(gatedWorkloads))
	}
	for i, w := range m.Workloads {
		if w.Name != gatedWorkloads[i] {
			t.Errorf("workload %d: manifest %q, code %q", i, w.Name, gatedWorkloads[i])
		}
	}
}

// Every workload runs end to end at smoke size, traced and untraced, with
// every oracle check passing and every metric of its list present.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w, seed: 3, seconds: 1, traced: traced, size: smokeSize, out: t.TempDir()}
			res, rep, err := runOnce(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d: %v", w, traced, res.Correct, res.Failed, rep.violated)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), want)
			}
		}
	}
}
