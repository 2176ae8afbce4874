package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/fault"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/serve"
)

// testFixture builds a small synthetic world and a Gaussian-initialized
// model over it — the router only relays shard answers, so the model
// need not be trained, just valid and deterministic.
func testFixture(t testing.TB) (*mf.Model, *dataset.Dataset) {
	t.Helper()
	w, err := datagen.Generate(datagen.Profile{
		Name: "cluster", Users: 60, Items: 90, Pairs: 1500,
		ZipfExp: 0.6, Dim: 4, Affinity: 6,
	}, mathx.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	m := mf.MustNew(mf.Config{
		NumUsers: w.Data.NumUsers(), NumItems: w.Data.NumItems(), Dim: 4, UseBias: true,
	})
	m.InitGaussian(mathx.NewRNG(8), 0.1)
	return m, w.Data
}

// testShard is one in-process serve shard wrapped in a chaos injector.
type testShard struct {
	srv   *serve.Server
	chaos *fault.Chaos
	ts    *httptest.Server
}

// newTestCluster spins n identical serve shards (each behind a
// fault.Chaos) and a router over them. mut tweaks the router config
// before construction; every test gets fast retry/breaker/probe knobs by
// default so nothing sleeps for real-world durations.
func newTestCluster(t testing.TB, n int, mut func(*Config)) (*Router, []*testShard, *dataset.Dataset) {
	t.Helper()
	model, train := testFixture(t)
	shards := make([]*testShard, n)
	shardCfgs := make([]ShardConfig, n)
	for i := range shards {
		s, err := serve.New(model.Clone(), train)
		if err != nil {
			t.Fatal(err)
		}
		s.EnableAdminReload(func() error { return s.Install(s.Model().Clone(), serve.InstallOpts{Folded: serve.KeepFoldedSeq}) })
		ch := fault.NewChaos(s.Handler())
		ts := httptest.NewServer(ch)
		t.Cleanup(ts.Close)
		shards[i] = &testShard{srv: s, chaos: ch, ts: ts}
		shardCfgs[i] = ShardConfig{Name: fmt.Sprintf("shard-%d", i), URL: ts.URL}
	}
	cfg := Config{
		Shards:    shardCfgs,
		Train:     train,
		NoHedge:   true, // hedging has its own test; elsewhere it only adds nondeterminism
		RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond,
		Breaker: BreakerConfig{FailureThreshold: 3, Cooldown: 100 * time.Millisecond, SuccessThreshold: 1},
		Probe:   ProbeConfig{Interval: 5 * time.Millisecond, Timeout: 500 * time.Millisecond, EjectAfter: 2, ReadmitAfter: 2},
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, shards, train
}

// homeOf returns the index of user's primary shard on the ring.
func homeOf(r *Router, user int32) int {
	return r.ring.Lookup(UserKey(user))[0]
}

// userHomedOn finds a user whose primary shard is idx.
func userHomedOn(t testing.TB, r *Router, idx int) int32 {
	t.Helper()
	for u := int32(0); u < 60; u++ {
		if homeOf(r, u) == idx {
			return u
		}
	}
	t.Fatalf("no test user homed on shard %d", idx)
	return 0
}

func routerGet(t testing.TB, h http.Handler, path string) (*httptest.ResponseRecorder, Response) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var body Response
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("bad JSON from %s: %v: %s", path, err, rec.Body.String())
		}
	}
	return rec, body
}

// Happy path: a known user's requests land on their home shard, carry no
// degraded label, name the serving shard, and agree with what the shard
// answers directly.
func TestRouterRoutesToHomeShard(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, nil)
	h := r.Handler()
	for u := int32(0); u < 10; u++ {
		home := homeOf(r, u)
		rec, body := routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
		if rec.Code != http.StatusOK {
			t.Fatalf("user %d: status %d: %s", u, rec.Code, rec.Body.String())
		}
		if body.Degraded != "" {
			t.Errorf("user %d: healthy cluster served degraded=%q", u, body.Degraded)
		}
		if body.Shard != fmt.Sprintf("shard-%d", home) {
			t.Errorf("user %d: served by %s, home is shard-%d", u, body.Shard, home)
		}
		// The shard's direct answer must match item-for-item.
		direct := httptest.NewRecorder()
		shards[home].srv.Handler().ServeHTTP(direct,
			httptest.NewRequest(http.MethodGet, fmt.Sprintf("/recommend?user=%d&k=5", u), nil))
		var want Response
		if err := json.Unmarshal(direct.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if len(body.Items) != len(want.Items) {
			t.Fatalf("user %d: router %d items, shard %d", u, len(body.Items), len(want.Items))
		}
		for i := range want.Items {
			if body.Items[i] != want.Items[i] {
				t.Errorf("user %d rank %d: router %+v != shard %+v", u, i, body.Items[i], want.Items[i])
			}
		}
	}
}

// Cold-start requests route by history (order-independently) and work
// end to end through the router.
func TestRouterColdStartRouting(t *testing.T) {
	r, _, _ := newTestCluster(t, 3, nil)
	h := r.Handler()
	rec1, b1 := routerGet(t, h, "/recommend?items=1,5,9&k=4")
	rec2, b2 := routerGet(t, h, "/recommend?items=9,1,5&k=4")
	if rec1.Code != http.StatusOK || rec2.Code != http.StatusOK {
		t.Fatalf("cold-start status %d / %d", rec1.Code, rec2.Code)
	}
	if b1.Shard != b2.Shard {
		t.Errorf("same history set routed to %s and %s", b1.Shard, b2.Shard)
	}
	if len(b1.Items) != 4 {
		t.Errorf("cold-start returned %d items, want 4", len(b1.Items))
	}
}

// A dead primary's traffic fails over to a replica and says so: 200,
// degraded="replica", served by a non-home shard. Never a silent success.
func TestRouterFailoverLabelsReplica(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, nil)
	h := r.Handler()
	u := userHomedOn(t, r, 0)
	shards[0].chaos.SetDown(true)
	rec, body := routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
	if rec.Code != http.StatusOK {
		t.Fatalf("failover status %d: %s", rec.Code, rec.Body.String())
	}
	if body.Degraded != DegradedReplica {
		t.Errorf("failover degraded=%q, want %q", body.Degraded, DegradedReplica)
	}
	if body.Shard == "shard-0" || body.Shard == "" {
		t.Errorf("failover served by %q", body.Shard)
	}
	if r.degraded.With(DegradedReplica).Value() == 0 {
		t.Error("clapf_router_degraded_total{mode=replica} not incremented")
	}
}

// Client errors are the shard's verdict and relay verbatim — an
// out-of-range user is a 400, not a retry storm or a fallback.
func TestRouterRelays4xxWithoutRetry(t *testing.T) {
	r, _, _ := newTestCluster(t, 3, nil)
	h := r.Handler()
	rec, _ := routerGet(t, h, "/recommend?user=500000&k=5")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range user: status %d, want 400", rec.Code)
	}
	if got := r.retries.Value(); got != 0 {
		t.Errorf("a 4xx cost %d retries", got)
	}
	if rec.Code == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "error") {
		t.Errorf("400 body carries no error payload: %s", rec.Body.String())
	}
	// Router-side parse failures are 400s too.
	for _, path := range []string{"/recommend", "/recommend?user=abc", "/recommend?user=1&items=2", "/recommend?user=1&k=0"} {
		rec, _ := routerGet(t, h, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

// With every shard dead, a user the router has answered before gets
// their stale top-K back — labeled stale_cache, not silently served.
func TestRouterStaleCacheFallback(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, nil)
	h := r.Handler()
	_, fresh := routerGet(t, h, "/recommend?user=3&k=5")
	for _, sh := range shards {
		sh.chaos.SetDown(true)
	}
	rec, stale := routerGet(t, h, "/recommend?user=3&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("stale fallback status %d", rec.Code)
	}
	if stale.Degraded != DegradedStaleCache {
		t.Errorf("degraded=%q, want %q", stale.Degraded, DegradedStaleCache)
	}
	if len(stale.Items) != len(fresh.Items) {
		t.Fatalf("stale answer has %d items, fresh had %d", len(stale.Items), len(fresh.Items))
	}
	for i := range fresh.Items {
		if stale.Items[i] != fresh.Items[i] {
			t.Errorf("rank %d: stale %+v != fresh %+v", i, stale.Items[i], fresh.Items[i])
		}
	}
	if r.degraded.With(DegradedStaleCache).Value() == 0 {
		t.Error("clapf_router_degraded_total{mode=stale_cache} not incremented")
	}
}

// An unprimed user with every shard dead falls through to the
// popularity ranking — which still excludes the user's training
// positives. The very bottom rung (unknown user, no history) is an
// honest 503 with a jittered Retry-After.
func TestRouterPopRankFallback(t *testing.T) {
	r, shards, train := newTestCluster(t, 3, nil)
	h := r.Handler()
	for _, sh := range shards {
		sh.chaos.SetDown(true)
	}
	rec, body := routerGet(t, h, "/recommend?user=4&k=8")
	if rec.Code != http.StatusOK {
		t.Fatalf("poprank fallback status %d", rec.Code)
	}
	if body.Degraded != DegradedPopRank {
		t.Errorf("degraded=%q, want %q", body.Degraded, DegradedPopRank)
	}
	for _, it := range body.Items {
		if train.IsPositive(4, it.Item) {
			t.Errorf("poprank fallback recommended item %d the user already has", it.Item)
		}
	}
	// Cold-start histories get poprank too, excluding the history itself.
	rec, body = routerGet(t, h, "/recommend?items=2,6&k=8")
	if rec.Code != http.StatusOK || body.Degraded != DegradedPopRank {
		t.Fatalf("cold-start poprank: status %d degraded %q", rec.Code, body.Degraded)
	}
	for _, it := range body.Items {
		if it.Item == 2 || it.Item == 6 {
			t.Errorf("poprank fallback recommended history item %d", it.Item)
		}
	}
	// Out-of-range user: nothing defensible left — 503, Retry-After set.
	rec, _ = routerGet(t, h, "/recommend?user=500000&k=5")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("bottom rung status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if r.unavailable.Value() == 0 {
		t.Error("clapf_router_unavailable_total not incremented")
	}
}

// Fully dark cluster with no fallback data: every rung exhausted must be
// an honest 503, and the router's /readyz goes 503 too (no Train means
// no poprank to stand on).
func TestRouterHonest503WhenEverythingGone(t *testing.T) {
	r, shards, _ := newTestCluster(t, 2, func(c *Config) {
		c.Train = nil
		c.StaleCacheSize = -1 // "disabled", not "default"
	})
	h := r.Handler()
	for _, sh := range shards {
		sh.chaos.SetDown(true)
	}
	rec, _ := routerGet(t, h, "/recommend?user=1&k=5")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	// Membership still shows every shard available (no prober ran), so
	// readyz stays 200 here; eject them and it must go dark honestly.
	for _, sh := range r.shards {
		sh.available.Store(false)
	}
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if ready.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz with zero shards and no fallback: %d, want 503", ready.Code)
	}
}

// A shard that sheds with Retry-After is held out of the candidate set
// until the hold expires instead of being hammered straight back into
// overload: the second request must not touch it at all.
func TestRouterHonorsRetryAfter(t *testing.T) {
	var homeHits atomic.Int64
	model, train := testFixture(t)
	replica, err := serve.New(model.Clone(), train)
	if err != nil {
		t.Fatal(err)
	}
	replicaTS := httptest.NewServer(replica.Handler())
	t.Cleanup(replicaTS.Close)
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		homeHits.Add(1)
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"overloaded"}`)
	}))
	t.Cleanup(shedding.Close)

	r, err := NewRouter(Config{
		Shards: []ShardConfig{
			{Name: "shedding", URL: shedding.URL},
			{Name: "replica", URL: replicaTS.URL},
		},
		NoHedge:   true,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		Breaker: BreakerConfig{FailureThreshold: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	u := userHomedOn(t, r, 0) // homed on the shedding shard
	rec, body := routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
	if rec.Code != http.StatusOK || body.Degraded != DegradedReplica {
		t.Fatalf("first request: status %d degraded %q", rec.Code, body.Degraded)
	}
	hitsAfterFirst := homeHits.Load()
	if hitsAfterFirst == 0 {
		t.Fatal("first request never tried the home shard")
	}
	for i := 0; i < 5; i++ {
		rec, body = routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
		if rec.Code != http.StatusOK || body.Degraded != DegradedReplica {
			t.Fatalf("held-out request %d: status %d degraded %q", i, rec.Code, body.Degraded)
		}
	}
	if homeHits.Load() != hitsAfterFirst {
		t.Errorf("shedding shard hit %d more times during its Retry-After hold",
			homeHits.Load()-hitsAfterFirst)
	}
}

// A shard that sheds with 429 + Retry-After is back-pressure, exactly
// like 503: the router must fail over to a replica (not relay the 429),
// hold the shard out of the candidate set until the Retry-After
// expires, and record the attempt as a shard error, never a success.
func TestRouter429ShedTreatedAsBackpressure(t *testing.T) {
	var homeHits atomic.Int64
	model, train := testFixture(t)
	replica, err := serve.New(model.Clone(), train)
	if err != nil {
		t.Fatal(err)
	}
	replicaTS := httptest.NewServer(replica.Handler())
	t.Cleanup(replicaTS.Close)
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		homeHits.Add(1)
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"rate limited"}`)
	}))
	t.Cleanup(shedding.Close)

	r, err := NewRouter(Config{
		Shards: []ShardConfig{
			{Name: "shedding", URL: shedding.URL},
			{Name: "replica", URL: replicaTS.URL},
		},
		NoHedge:   true,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		Breaker: BreakerConfig{FailureThreshold: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	u := userHomedOn(t, r, 0) // homed on the shedding shard
	rec, body := routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
	if rec.Code != http.StatusOK || body.Degraded != DegradedReplica {
		t.Fatalf("429 from home shard: status %d degraded %q, want 200 via replica", rec.Code, body.Degraded)
	}
	hitsAfterFirst := homeHits.Load()
	if hitsAfterFirst == 0 {
		t.Fatal("first request never tried the home shard")
	}
	if r.shardReqs.With("shedding", "error").Value() == 0 {
		t.Error("a 429 shed was not recorded as a shard error")
	}
	if r.shardReqs.With("shedding", "ok").Value() != 0 {
		t.Error("a 429 shed was recorded as a shard success")
	}
	for i := 0; i < 5; i++ {
		rec, body = routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
		if rec.Code != http.StatusOK || body.Degraded != DegradedReplica {
			t.Fatalf("held-out request %d: status %d degraded %q", i, rec.Code, body.Degraded)
		}
	}
	if homeHits.Load() != hitsAfterFirst {
		t.Errorf("429-shedding shard hit %d more times during its Retry-After hold",
			homeHits.Load()-hitsAfterFirst)
	}
}

// A request context that dies during the retry backoff must not leak a
// half-open probe slot: forward may only hold a breaker reservation
// while an attempt is actually in flight. A leaked slot would pin the
// breaker half-open rejecting everything until process restart.
func TestRouterCanceledBackoffDoesNotLeakProbeSlot(t *testing.T) {
	r, shards, _ := newTestCluster(t, 2, func(c *Config) {
		// A long, flat backoff window so the context deadline lands
		// inside the retry sleep with overwhelming probability.
		c.RetryBase, c.RetryMax = 10*time.Second, 10*time.Second
		c.Breaker = BreakerConfig{FailureThreshold: 1, Cooldown: time.Millisecond, SuccessThreshold: 1, ProbeBudget: 1}
	})
	u := userHomedOn(t, r, 0)
	shards[0].chaos.SetDown(true)
	// Park the replica's breaker half-open: its single probe slot is the
	// resource a buggy forward would leak.
	r.Breaker(1).Failure()
	deadline := time.Now().Add(time.Second)
	for r.Breaker(1).State() != BreakerHalfOpen {
		if time.Now().After(deadline) {
			t.Fatal("replica breaker never went half-open")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	r.forward(ctx, UserKey(u), fmt.Sprintf("/recommend?user=%d&k=5", u), true)
	// Whatever path forward took — canceled mid-backoff (the common
	// case here) or a completed probe — the replica's probe slot must be
	// free again.
	if !r.Breaker(1).Allow() {
		t.Fatal("canceled backoff leaked the replica's half-open probe slot")
	}
	r.Breaker(1).Cancel()
}

// A client whose own deadline expires mid-attempt says nothing about
// shard health: the breaker must see a no-fault cancel, not a failure —
// otherwise a burst of impatient clients trips breakers on healthy
// shards.
func TestRouterClientDeadlineDoesNotChargeBreaker(t *testing.T) {
	r, shards, _ := newTestCluster(t, 1, func(c *Config) {
		c.AttemptTimeout = 5 * time.Second
		c.Breaker = BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute}
	})
	shards[0].chaos.SetLatency(300 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res := r.forward(ctx, UserKey(0), "/recommend?user=0&k=5", true)
	if res.err == nil {
		t.Fatal("forward succeeded despite the expired client deadline")
	}
	if got := r.Breaker(0).Opens(); got != 0 {
		t.Errorf("client deadline expiry tripped the shard breaker (opens=%d)", got)
	}
	if r.shardReqs.With("shard-0", "canceled").Value() == 0 {
		t.Error("deadline-expired attempt not recorded as canceled")
	}
	if r.shardReqs.With("shard-0", "error").Value() != 0 {
		t.Error("deadline-expired attempt charged as a shard error")
	}
}

// Torn shard responses (honest Content-Length, half the body, connection
// abort) are failures, not garbage relayed to the client: the router
// retries onto a replica and the client sees a well-formed 200.
func TestRouterRetriesTornResponses(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, nil)
	h := r.Handler()
	u := userHomedOn(t, r, 1)
	shards[1].chaos.SetTornEvery(1)
	rec, body := routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via replica", rec.Code)
	}
	if body.Degraded != DegradedReplica {
		t.Errorf("degraded=%q, want %q", body.Degraded, DegradedReplica)
	}
	if r.retries.Value() == 0 {
		t.Error("torn response did not count a retry")
	}
	if r.shardReqs.With("shard-1", "error").Value() == 0 {
		t.Error("torn response not recorded as a shard-1 error")
	}
}

// A 200 whose body does not decode as a recommendation is a lie the
// attempt layer cannot see (the transfer completed); the response layer
// must degrade rather than relay garbage.
func TestRouterDegradesOnUndecodable200(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `this is not json`)
	}))
	t.Cleanup(garbage.Close)
	_, train := testFixture(t)
	r, err := NewRouter(Config{
		Shards:  []ShardConfig{{Name: "liar", URL: garbage.URL}},
		Train:   train,
		NoHedge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, body := routerGet(t, r.Handler(), "/recommend?user=2&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body.Degraded != DegradedPopRank {
		t.Errorf("degraded=%q, want %q (garbage must not be relayed)", body.Degraded, DegradedPopRank)
	}
}

// With healthy replicas behind it, a home shard that answers 200 with
// garbage is a failed shard like any other: the request walks on to a
// replica (fresh answer, labelled), the liar is charged, and enough lies
// open its breaker.
func TestRouterRetriesUndecodable200OntoReplica(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `this is not json`)
	}))
	t.Cleanup(garbage.Close)
	const liar = 1
	r, _, _ := newTestCluster(t, 3, func(c *Config) { c.Shards[liar].URL = garbage.URL })
	h := r.Handler()
	u := userHomedOn(t, r, liar)
	for i := 0; i < 3; i++ { // the test cluster's breaker threshold
		rec, body := routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d, want 200 via replica", rec.Code)
		}
		if body.Degraded != DegradedReplica || body.Shard == "shard-1" || len(body.Items) != 5 {
			t.Fatalf("degraded=%q shard=%q items=%d, want a labelled replica answer", body.Degraded, body.Shard, len(body.Items))
		}
	}
	if r.shardReqs.With("shard-1", "error").Value() == 0 {
		t.Error("undecodable 200 not recorded as a shard-1 error")
	}
	if r.shardReqs.With("shard-1", "ok").Value() != 0 {
		t.Error("undecodable 200 recorded as a shard-1 success")
	}
	if r.Breaker(liar).Opens() == 0 {
		t.Error("three undecodable answers in a row did not open the liar's breaker")
	}
}

// Hedging: when the home shard stalls past the hedge delay, a duplicate
// fires at the next replica and its answer wins — tail latency is
// bounded by the replica, and the merely-slow home shard's breaker is
// NOT penalized for losing the race.
func TestRouterHedgesSlowShard(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, func(c *Config) {
		c.NoHedge = false
		c.HedgeDefault = 20 * time.Millisecond
		c.HedgeFloor = time.Millisecond
	})
	h := r.Handler()
	slow := 2
	u := userHomedOn(t, r, slow)
	shards[slow].chaos.SetLatency(400 * time.Millisecond)
	start := time.Now()
	rec, body := routerGet(t, h, fmt.Sprintf("/recommend?user=%d&k=5", u))
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body.Degraded != DegradedReplica {
		t.Errorf("hedge winner degraded=%q, want %q", body.Degraded, DegradedReplica)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("request took %v — the hedge never rescued it from the %v stall", elapsed, 400*time.Millisecond)
	}
	if r.hedges.Value() == 0 || r.hedgeWins.Value() == 0 {
		t.Errorf("hedges=%d hedgeWins=%d, want both > 0", r.hedges.Value(), r.hedgeWins.Value())
	}
	if r.Breaker(slow).Opens() != 0 {
		t.Error("losing a hedge race tripped the slow shard's breaker")
	}
}

// The /readyz prober ejects a dead shard only after EjectAfter
// consecutive failures and readmits only after ReadmitAfter consecutive
// successes — one dropped probe must not empty the ring.
func TestProberHysteresis(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, nil)
	shards[0].chaos.SetDown(true)
	r.ProbeNow()
	if !r.Available(0) {
		t.Fatal("one failed probe ejected the shard (EjectAfter is 2)")
	}
	r.ProbeNow()
	if r.Available(0) {
		t.Fatal("shard not ejected after EjectAfter consecutive failures")
	}
	if r.ejections.With("shard-0").Value() != 1 {
		t.Errorf("ejections = %d, want 1", r.ejections.With("shard-0").Value())
	}
	shards[0].chaos.SetDown(false)
	r.ProbeNow()
	if r.Available(0) {
		t.Fatal("one good probe readmitted the shard (ReadmitAfter is 2)")
	}
	r.ProbeNow()
	if !r.Available(0) {
		t.Fatal("shard not readmitted after ReadmitAfter consecutive successes")
	}
	if r.readmissions.With("shard-0").Value() != 1 {
		t.Errorf("readmissions = %d, want 1", r.readmissions.With("shard-0").Value())
	}
}

// Router health surfaces: /healthz lists every shard's condition;
// /readyz stays 200 while anything (shard or fallback) can answer.
func TestRouterHealthEndpoints(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, nil)
	h := r.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Eligible != 3 || len(hr.Shards) != 3 {
		t.Errorf("healthy cluster: %+v", hr)
	}
	for _, sh := range shards {
		sh.chaos.SetDown(true)
	}
	r.ProbeNow()
	r.ProbeNow()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || hr.Eligible != 0 {
		t.Errorf("dark cluster healthz: %+v", hr)
	}
	// Poprank fallback still stands, so the router itself remains ready.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("readyz with poprank fallback: %d, want 200", rec.Code)
	}
}

// Rolling reload: every shard's generation advances exactly once, gated
// on quorum; with too few healthy peers the sweep aborts before touching
// anything.
func TestRollingReload(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, nil)
	if err := r.RollingReload(context.Background()); err != nil {
		t.Fatalf("rolling reload: %v", err)
	}
	for i, sh := range shards {
		if g := sh.srv.Generation(); g != 1 {
			t.Errorf("shard %d generation = %d, want 1", i, g)
		}
	}
	if r.reloads.With("ok").Value() != 1 {
		t.Errorf("reloads{ok} = %d, want 1", r.reloads.With("ok").Value())
	}

	// Quorum gate: with two of three shards ejected, no reload may start.
	r.shards[1].available.Store(false)
	r.shards[2].available.Store(false)
	if err := r.RollingReload(context.Background()); err == nil {
		t.Fatal("rolling reload proceeded below quorum")
	}
	if r.reloads.With("quorum_abort").Value() != 1 {
		t.Errorf("reloads{quorum_abort} = %d, want 1", r.reloads.With("quorum_abort").Value())
	}
	for i, sh := range shards {
		if g := sh.srv.Generation(); g != 1 {
			t.Errorf("shard %d generation moved to %d during aborted sweep", i, g)
		}
	}
}

// A shard whose reload endpoint fails keeps its old model and the sweep
// continues — generation skew is bounded, availability is not traded
// for freshness.
func TestRollingReloadContinuesPastFailedShard(t *testing.T) {
	r, shards, _ := newTestCluster(t, 3, nil)
	shards[1].srv.EnableAdminReload(func() error { return fmt.Errorf("disk full") })
	err := r.RollingReload(context.Background())
	if err == nil {
		t.Fatal("failed shard reload reported no error")
	}
	want := []uint64{1, 0, 1}
	for i, sh := range shards {
		if g := sh.srv.Generation(); g != want[i] {
			t.Errorf("shard %d generation = %d, want %d", i, g, want[i])
		}
	}
	if r.reloads.With("error").Value() != 1 {
		t.Errorf("reloads{error} = %d, want 1", r.reloads.With("error").Value())
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Error("routerless config accepted")
	}
	if _, err := NewRouter(Config{Shards: []ShardConfig{{Name: "a"}}}); err == nil {
		t.Error("shard without URL accepted")
	}
	if _, err := NewRouter(Config{Shards: []ShardConfig{{URL: "http://x"}}}); err == nil {
		t.Error("shard without name accepted")
	}
}

// TestHedgeRace runs attemptHedged with the primary slow enough for the
// hedge timer to fire. Whichever side answers first is the result, the
// other is canceled without a charge, the preference walk moved on by
// exactly the hedge's shard, and a hedge that wins counts as one.
func TestHedgeRace(t *testing.T) {
	for _, c := range []struct {
		name                  string
		primaryLag, hedgeLag  time.Duration
		hedgeWins             uint64
		winner, loser, within int // indexes into the preference order; ms
	}{
		{"hedge wins", 400 * time.Millisecond, 0, 1, 1, 0, 400},
		{"primary wins", 60 * time.Millisecond, 500 * time.Millisecond, 0, 0, 1, 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, shards, _ := newTestCluster(t, 3, func(cfg *Config) {
				cfg.NoHedge = false
				cfg.HedgeDefault = 10 * time.Millisecond
				cfg.HedgeFloor = time.Millisecond
			})
			pref := r.ring.Lookup(UserKey(3))
			shards[pref[0]].chaos.SetLatency(c.primaryLag)
			shards[pref[1]].chaos.SetLatency(c.hedgeLag)
			pos := 0
			primary := r.nextEligible(pref, &pos)
			start := time.Now()
			res := r.attemptHedged(context.Background(), primary, pref, &pos, "/recommend?user=3&k=5", true)
			if took := time.Since(start); took >= time.Duration(c.within)*time.Millisecond {
				t.Errorf("took %v: the caller waited for the loser", took)
			}
			winner, loser := r.shards[pref[c.winner]], r.shards[pref[c.loser]]
			if res.err != nil || res.shard != winner {
				t.Fatalf("err %v from %s, want an answer from %s", res.err, res.shard.name, winner.name)
			}
			if pos != 2 {
				t.Errorf("pos = %d, want 2: the primary's step and the hedge's", pos)
			}
			if h, w := r.hedges.Value(), r.hedgeWins.Value(); h != 1 || w != c.hedgeWins {
				t.Errorf("hedges=%d hedgeWins=%d, want 1 and %d", h, w, c.hedgeWins)
			}
			// Nobody waits for a losing hedge: its settlement trails the answer.
			deadline := time.Now().Add(5 * time.Second)
			for r.shardReqs.With(loser.name, "canceled").Value() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := r.shardReqs.With(loser.name, "canceled").Value(); n != 1 {
				t.Errorf("loser settled canceled %d times, want 1", n)
			}
			if r.shardReqs.With(loser.name, "error").Value() != 0 || loser.breaker.State() != BreakerClosed {
				t.Error("losing the race was charged to the loser's breaker")
			}
			if r.shardReqs.With(winner.name, "ok").Value() != 1 {
				t.Error("the winner's answer was not recorded ok")
			}
		})
	}
}
