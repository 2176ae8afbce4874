package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/obs"
	"clapf/internal/obs/trace"
	"clapf/internal/serve"
)

// ShardConfig names one serve shard and where to reach it.
type ShardConfig struct {
	Name string
	URL  string // base URL, e.g. http://10.0.0.3:8080 (no trailing slash)
	// Retrieval, when set ("exact" or "ivf"), is the retrieval mode this
	// shard is expected to serve. The health prober compares it against
	// the mode the shard reports on /healthz and logs drift — a fleet
	// where one shard silently fell back to a different strategy returns
	// inconsistent rankings for the same user depending on failover, which
	// is worth an alert even though every individual answer is valid.
	// Empty disables the check.
	Retrieval string
}

// Config tunes the router. The zero value of every field has a sane
// default (applied by NewRouter); only Shards is required.
type Config struct {
	Shards []ShardConfig
	// VNodes is the virtual points per shard on the hash ring. Default 64.
	VNodes int
	// MaxRetries bounds retry attempts beyond the first try. Default 3.
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff with full
	// jitter between attempts. Defaults 25ms and 1s.
	RetryBase, RetryMax time.Duration
	// AttemptTimeout is the per-attempt deadline against one shard (the
	// overall request may spend several of these across retries).
	// Default 2s.
	AttemptTimeout time.Duration
	// NoHedge disables hedged requests. By default, when a shard has not
	// answered after the router-observed p95 latency, the same request is
	// fired at the next replica and the first answer wins.
	NoHedge bool
	// HedgeFloor is the minimum hedge delay — below it a hedge would fire
	// on nearly every request. Default 2ms.
	HedgeFloor time.Duration
	// HedgeDefault is the hedge delay used until the latency window has
	// enough samples to estimate p95. Default 50ms.
	HedgeDefault time.Duration
	// LatencyWindow is the number of recent request latencies kept for
	// the p95 estimate. Default 512.
	LatencyWindow int
	// Breaker configures every shard's circuit breaker.
	Breaker BreakerConfig
	// Probe configures the /readyz health prober.
	Probe ProbeConfig
	// Feedback configures the POST /feedback write path (owner affinity,
	// buffered-ack degradation).
	Feedback FeedbackConfig
	// StaleCacheSize bounds the router-local stale top-K cache used as a
	// degradation fallback; 0 disables it. Default 4096.
	StaleCacheSize int
	// Quorum is the minimum count of *other* available shards required
	// before RollingReload touches a shard. Default len(Shards)/2 + 1
	// (capped at len(Shards)-1 so a reload is possible at all).
	Quorum int
	// MaxK caps the k parameter for fallback rankings. Default 100.
	MaxK int
	// Train, when set, enables the popularity-ranking fallback (fitted
	// once at construction) and observed-item exclusion for it.
	Train *dataset.Dataset
	// ReloadPath is the shard endpoint RollingReload POSTs to. Default
	// "/admin/reload".
	ReloadPath string
	// Seed drives backoff/hedge jitter. Default 1; cmd/clapf-router
	// seeds from the clock so distinct routers desynchronize.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.HedgeFloor <= 0 {
		c.HedgeFloor = 2 * time.Millisecond
	}
	if c.HedgeDefault <= 0 {
		c.HedgeDefault = 50 * time.Millisecond
	}
	if c.LatencyWindow <= 0 {
		c.LatencyWindow = 512
	}
	if c.StaleCacheSize == 0 {
		c.StaleCacheSize = 4096
	}
	if c.Quorum <= 0 {
		c.Quorum = len(c.Shards)/2 + 1
	}
	if c.Quorum > len(c.Shards)-1 {
		c.Quorum = len(c.Shards) - 1
	}
	if c.Quorum < 0 {
		c.Quorum = 0
	}
	if c.MaxK <= 0 {
		c.MaxK = 100
	}
	if c.ReloadPath == "" {
		c.ReloadPath = "/admin/reload"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// shardState is one shard's runtime condition: its breaker, its
// health-driven membership flag, and the Retry-After hold the shard
// itself asked for.
type shardState struct {
	name  string
	url   string
	conns *shardConns
	span  string // "shard:"+name, the attempt span's name
	// What splice puts in place of a relayed body's closing "}\n" when this
	// shard answered: its name, and off the key's home shard the degraded
	// label in front of it.
	homeSuffix, replicaSuffix []byte

	breaker *Breaker
	// available is the prober's verdict: false means ejected from
	// routing until the readmission hysteresis clears.
	available atomic.Bool
	// notBefore (unix nanos) honors a shard's Retry-After: until this
	// instant the shard is skipped, so shed shards are not hammered
	// back into overload by their own router.
	notBefore atomic.Int64

	// retrieval is the mode the shard last reported on /healthz ("" until
	// the first successful observation); expectRetrieval is the configured
	// expectation it is checked against.
	retrieval       atomic.Value // string
	expectRetrieval string

	// prober-owned hysteresis counters (guarded by Router.probeMu),
	// plus the drift-warning latch so mode drift logs once per episode.
	probeFails, probeOKs int
	retrievalWarned      bool
}

// observedRetrieval returns the shard's last-reported retrieval mode.
func (sh *shardState) observedRetrieval() string {
	if v, ok := sh.retrieval.Load().(string); ok {
		return v
	}
	return ""
}

// eligible reports whether the shard may receive an attempt right now —
// membership says it is alive and any Retry-After hold has expired. The
// breaker is consulted separately (Allow reserves half-open probes).
func (sh *shardState) eligible(now time.Time) bool {
	return sh.available.Load() && now.UnixNano() >= sh.notBefore.Load()
}

// Response is the router's /recommend payload: the shard payload plus
// provenance. Degraded is empty for a fresh primary answer; otherwise it
// names the rung of the degradation ladder that produced the items:
// "replica" (fresh, but not the user's home shard — cache affinity
// lost), "stale_cache" (router-local copy of an earlier answer), or
// "poprank" (non-personalized popularity ranking). A response is never
// silently degraded.
type Response struct {
	User     *int32       `json:"user,omitempty"`
	Items    []serve.Item `json:"items"`
	Degraded string       `json:"degraded,omitempty"`
	Shard    string       `json:"shard,omitempty"`
}

// Degradation ladder labels.
const (
	DegradedReplica    = "replica"
	DegradedStaleCache = "stale_cache"
	DegradedPopRank    = "poprank"
)

// Router fronts the shard set: it owns the ring, the per-shard breakers
// and health state, the stale-cache and popularity fallbacks, and the
// retry/hedge policy. Construct with NewRouter, serve Handler().
type Router struct {
	cfg    Config
	shards []*shardState
	ring   *Ring
	rng    *lockedRNG
	lat    *latencyTracker
	stale  *staleCache
	pop    *popFallback
	fbuf   *feedbackBuffer // nil when buffering is disabled

	log    *slog.Logger
	reg    *obs.Registry
	httpm  *obs.HTTPMetrics
	tracer *trace.Tracer

	degraded     *obs.CounterVec // {mode}
	relaySpliced *obs.Counter    // clapf_router_relay_total{path="spliced"}
	relayDecoded *obs.Counter    // … {path="decoded"}
	encodeErrors *obs.Counter
	retries      *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	shardReqs    *obs.CounterVec // {shard, result}
	breakerOpens *obs.CounterVec // {shard}
	ejections    *obs.CounterVec // {shard}
	readmissions *obs.CounterVec // {shard}
	unavailable  *obs.Counter
	availGauge   *obs.GaugeVec   // {shard}
	brkGauge     *obs.GaugeVec   // {shard}
	reloads      *obs.CounterVec // {result}

	feedbackBuffered *obs.Counter
	feedbackFlushed  *obs.Counter

	probeMu  chMutex
	stopProb chan struct{}
	probing  atomic.Bool
}

// chMutex is a tiny mutex; named so the prober's ownership of the
// hysteresis counters is greppable.
type chMutex struct{ ch chan struct{} }

func newChMutex() chMutex  { return chMutex{ch: make(chan struct{}, 1)} }
func (m *chMutex) Lock()   { m.ch <- struct{}{} }
func (m *chMutex) Unlock() { <-m.ch }

// NewRouter validates cfg, builds the ring, fits the popularity
// fallback when a dataset is supplied, and registers the router's
// metrics. The health prober is not started; call StartProber.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	names := make([]string, len(cfg.Shards))
	for i, sc := range cfg.Shards {
		if sc.Name == "" || sc.URL == "" {
			return nil, fmt.Errorf("cluster: shard %d needs both a name and a URL", i)
		}
		names[i] = sc.Name
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		cfg:      cfg,
		ring:     ring,
		rng:      newLockedRNG(cfg.Seed),
		lat:      newLatencyTracker(cfg.LatencyWindow),
		stale:    newStaleCache(cfg.StaleCacheSize),
		log:      obs.NopLogger(),
		reg:      obs.NewRegistry(),
		probeMu:  newChMutex(),
		stopProb: make(chan struct{}),
	}
	for _, sc := range cfg.Shards {
		conns, err := newShardConns(sc.URL)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %s: %w", sc.Name, err)
		}
		sh := &shardState{
			name:            sc.Name,
			conns:           conns,
			span:            "shard:" + sc.Name,
			homeSuffix:      labelSuffix("", sc.Name),
			replicaSuffix:   labelSuffix(DegradedReplica, sc.Name),
			url:             strings.TrimRight(sc.URL, "/"),
			breaker:         NewBreaker(cfg.Breaker),
			expectRetrieval: sc.Retrieval,
		}
		sh.available.Store(true)
		r.shards = append(r.shards, sh)
	}
	if cfg.Train != nil {
		r.pop, err = newPopFallback(cfg.Train)
		if err != nil {
			return nil, err
		}
	}
	if fc := cfg.Feedback.withDefaults(); fc.BufferSize > 0 {
		r.fbuf = &feedbackBuffer{cap: fc.BufferSize}
	}

	r.httpm = obs.NewHTTPMetrics(r.reg, "clapf_router_")
	r.tracer = trace.New(r.reg, "clapf_router_", trace.Config{SampleRate: 0.01})
	r.degraded = r.reg.NewCounterVec("clapf_router_degraded_total",
		"Responses served below full freshness, by degradation mode (replica, stale_cache, poprank).", "mode")
	relay := r.reg.NewCounterVec("clapf_router_relay_total",
		"Shard /recommend answers relayed, by path: spliced (serve's own encoding, sent on as bytes with the labels appended) or decoded (anything else: unmarshal, label, re-encode, at several times the cost).", "path")
	r.relaySpliced = relay.With("spliced")
	r.relayDecoded = relay.With("decoded")
	r.encodeErrors = r.reg.NewCounter("clapf_encode_errors_total",
		"JSON response bodies that failed to encode after the header was written.")
	r.retries = r.reg.NewCounter("clapf_router_retries_total",
		"Shard attempts beyond the first per request (backoff-spaced).")
	r.hedges = r.reg.NewCounter("clapf_router_hedges_total",
		"Hedged duplicate requests fired after the p95-derived delay.")
	r.hedgeWins = r.reg.NewCounter("clapf_router_hedge_wins_total",
		"Hedged requests that answered before the primary attempt.")
	r.shardReqs = r.reg.NewCounterVec("clapf_router_shard_requests_total",
		"Attempts per shard by result (ok, error, canceled).", "shard", "result")
	r.breakerOpens = r.reg.NewCounterVec("clapf_router_breaker_opens_total",
		"Circuit-breaker trips per shard.", "shard")
	r.ejections = r.reg.NewCounterVec("clapf_router_shard_ejections_total",
		"Health-probe ejections per shard.", "shard")
	r.readmissions = r.reg.NewCounterVec("clapf_router_shard_readmissions_total",
		"Health-probe readmissions per shard.", "shard")
	r.unavailable = r.reg.NewCounter("clapf_router_unavailable_total",
		"Requests that exhausted every shard and every fallback (503 to the client).")
	r.availGauge = r.reg.NewGaugeVec("clapf_router_shard_available",
		"1 while the shard is in the routing set, 0 while ejected.", "shard")
	r.brkGauge = r.reg.NewGaugeVec("clapf_router_breaker_state",
		"Breaker position per shard: 0 closed, 1 open, 2 half-open.", "shard")
	r.reloads = r.reg.NewCounterVec("clapf_router_rolling_reloads_total",
		"Rolling model reload sweeps by result.", "result")
	r.feedbackBuffered = r.reg.NewCounter("clapf_router_feedback_buffered_total",
		"Feedback events accepted into the router buffer because the owning shard was down.")
	r.feedbackFlushed = r.reg.NewCounter("clapf_router_feedback_flushed_total",
		"Buffered feedback events later delivered to their owning shard.")
	r.reg.NewGaugeFunc("clapf_router_feedback_buffer_entries",
		"Feedback events currently waiting in the router buffer.",
		func() float64 { return float64(r.FeedbackBuffered()) })
	r.reg.NewGaugeFunc("clapf_router_stale_cache_entries",
		"Entries in the router-local stale top-K fallback cache.",
		func() float64 { return float64(r.stale.size()) })
	r.reg.NewGaugeFunc("clapf_router_shards",
		"Configured shard count.", func() float64 { return float64(len(r.shards)) })
	for _, sh := range r.shards {
		r.availGauge.With(sh.name).Set(1)
		r.brkGauge.With(sh.name).Set(0)
	}
	return r, nil
}

// SetLogger installs the router's structured logger; nil restores no-op.
func (r *Router) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.NopLogger()
	}
	r.log = l
	r.tracer.SetLogger(l)
}

// Registry exposes the router's metrics registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

// Tracer exposes the router's request tracer.
func (r *Router) Tracer() *trace.Tracer { return r.tracer }

// ShardNames returns the configured shard names in ring order.
func (r *Router) ShardNames() []string {
	out := make([]string, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.name
	}
	return out
}

// Breaker returns shard i's circuit breaker (tests and /healthz).
func (r *Router) Breaker(i int) *Breaker { return r.shards[i].breaker }

// Stats is a point-in-time snapshot of the router's failure-handling
// counters, for the bench harness and operational assertions.
type Stats struct {
	Retries     uint64            `json:"retries"`
	Hedges      uint64            `json:"hedges"`
	HedgeWins   uint64            `json:"hedge_wins"`
	Unavailable uint64            `json:"unavailable"`
	Degraded    map[string]uint64 `json:"degraded"`
}

// RouterStats snapshots the retry/hedge/degradation counters.
func (r *Router) RouterStats() Stats {
	return Stats{
		Retries:     r.retries.Value(),
		Hedges:      r.hedges.Value(),
		HedgeWins:   r.hedgeWins.Value(),
		Unavailable: r.unavailable.Value(),
		Degraded: map[string]uint64{
			DegradedReplica:    r.degraded.With(DegradedReplica).Value(),
			DegradedStaleCache: r.degraded.With(DegradedStaleCache).Value(),
			DegradedPopRank:    r.degraded.With(DegradedPopRank).Value(),
			DegradedBuffered:   r.degraded.With(DegradedBuffered).Value(),
		},
	}
}

// Available reports shard i's membership flag.
func (r *Router) Available(i int) bool { return r.shards[i].available.Load() }

// normalizeRouterPath bounds the router's metric path label.
func normalizeRouterPath(p string) string {
	switch p {
	case "/healthz", "/readyz", "/recommend", "/similar", "/feedback", "/metrics", "/debug/traces":
		return p
	}
	return "other"
}

// Handler returns the router's HTTP handler with tracing and request
// metrics stacked outside the mux, mirroring the shard-side ordering.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealth)
	mux.HandleFunc("GET /readyz", r.handleReady)
	mux.HandleFunc("GET /recommend", r.handleRecommend)
	mux.HandleFunc("GET /similar", r.handleSimilar)
	mux.HandleFunc("POST /feedback", r.handleFeedback)
	mux.Handle("GET /metrics", r.reg.Handler())
	mux.Handle("GET /debug/traces", r.tracer.Handler())
	var h http.Handler = mux
	h = r.tracer.Middleware(normalizeRouterPath, h)
	return r.httpm.Middleware(normalizeRouterPath, h)
}

// ShardHealth is one shard's condition in the /healthz payload.
type ShardHealth struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Available bool   `json:"available"`
	Breaker   string `json:"breaker"`
	Opens     uint64 `json:"breaker_opens"`
	// Retrieval is the retrieval mode the shard last reported on its
	// /healthz ("" before the first observation).
	Retrieval string `json:"retrieval,omitempty"`
}

// HealthResponse is the router's /healthz payload.
type HealthResponse struct {
	Status   string        `json:"status"`
	Shards   []ShardHealth `json:"shards"`
	Eligible int           `json:"eligible_shards"`
	// FeedbackBuffered is the count of feedback events waiting in the
	// router's buffered-ack queue for their owning shard to return.
	FeedbackBuffered int `json:"feedback_buffered,omitempty"`
}

func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	now := time.Now()
	resp := HealthResponse{Status: "ok"}
	for _, sh := range r.shards {
		st := sh.breaker.State()
		resp.Shards = append(resp.Shards, ShardHealth{
			Name: sh.name, URL: sh.url,
			Available: sh.available.Load(),
			Breaker:   st.String(),
			Opens:     sh.breaker.Opens(),
			Retrieval: sh.observedRetrieval(),
		})
		if sh.eligible(now) && st != BreakerOpen {
			resp.Eligible++
		}
	}
	if resp.Eligible == 0 {
		resp.Status = "degraded"
	}
	resp.FeedbackBuffered = r.FeedbackBuffered()
	r.writeJSON(w, http.StatusOK, resp)
}

// handleReady: the router is ready while at least one shard is routable
// OR a fallback can still answer — a router that can serve poprank is
// degraded, not down.
func (r *Router) handleReady(w http.ResponseWriter, req *http.Request) {
	if r.eligibleCount(time.Now()) > 0 || r.pop != nil {
		r.writeJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
		}{Status: "ready"})
		return
	}
	r.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no shard available"})
}

func (r *Router) eligibleCount(now time.Time) int {
	n := 0
	for _, sh := range r.shards {
		if sh.eligible(now) && sh.breaker.State() != BreakerOpen {
			n++
		}
	}
	return n
}

type errorResponse struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status. As on the shard, an encoding
// error after the header cannot reach the client but must not vanish: it is
// logged and counted in clapf_encode_errors_total.
func (r *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		r.encodeErrors.Inc()
		r.log.Error("response encode failed", "err", err, "status", code, "type", fmt.Sprintf("%T", v))
	}
}

// requestKey is what the router extracted from the query string: enough
// to route (ring key) and to fall back (user or history for exclusions).
type requestKey struct {
	key     uint64
	user    *int32  // set for known-user requests
	history []int32 // set for cold-start requests
	k       int
}

// parseRecommendKey extracts the routing key from a /recommend query.
// Validation is deliberately shallow — out-of-range users or items are
// the shard's 400 to give — but the id must parse to route at all.
func (r *Router) parseRecommendKey(req *http.Request) (requestKey, error) {
	q := req.URL.Query()
	rk := requestKey{k: 10}
	if ks := q.Get("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil || k < 1 {
			return rk, fmt.Errorf("invalid k %q", ks)
		}
		if k > r.cfg.MaxK {
			k = r.cfg.MaxK
		}
		rk.k = k
	}
	userParam, itemsParam := q.Get("user"), q.Get("items")
	switch {
	case userParam != "" && itemsParam != "":
		return rk, fmt.Errorf("pass either user or items, not both")
	case userParam != "":
		u, err := strconv.ParseInt(userParam, 10, 32)
		if err != nil || u < 0 {
			return rk, fmt.Errorf("invalid user %q", userParam)
		}
		u32 := int32(u)
		rk.user = &u32
		rk.key = UserKey(u32)
	case itemsParam != "":
		for _, p := range strings.Split(itemsParam, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
			if err != nil || v < 0 {
				return rk, fmt.Errorf("invalid item %q", p)
			}
			rk.history = append(rk.history, int32(v))
		}
		rk.key = HistoryKey(rk.history)
	default:
		return rk, fmt.Errorf("missing user or items parameter")
	}
	return rk, nil
}

func (r *Router) handleRecommend(w http.ResponseWriter, req *http.Request) {
	rk, err := r.parseRecommendKey(req)
	if err != nil {
		r.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	res := r.forward(req.Context(), rk.key, "/recommend?"+req.URL.RawQuery, true)
	switch {
	case res.err == nil && res.status == http.StatusOK:
		if !res.home {
			r.degraded.With(DegradedReplica).Inc()
		}
		if res.rec == nil {
			// The scanner took the body: it goes out as the bytes it came in.
			r.relaySpliced.Inc()
			if rk.user != nil && answersUser(res.body, *rk.user) {
				r.stale.put(staleKey{user: *rk.user, k: rk.k}, res.body)
			}
			suffix := res.shard.homeSuffix
			if !res.home {
				suffix = res.shard.replicaSuffix
			}
			splice(w, res.body, suffix)
			return
		}
		r.relayDecoded.Inc()
		body := res.rec
		body.Shard = res.shard.name
		if !res.home {
			body.Degraded = DegradedReplica
		}
		if rk.user != nil {
			// The stale rung splices too; it is handed what the scanner
			// would have accepted.
			if b, err := json.Marshal(Response{User: rk.user, Items: body.Items}); err == nil {
				r.stale.put(staleKey{user: *rk.user, k: rk.k}, append(b, '\n'))
			}
		}
		r.writeJSON(w, http.StatusOK, body)
	case res.err == nil:
		// Shard answered with a client error (4xx): relay verbatim.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	default:
		r.serveFallback(w, rk)
	}
}

// handleSimilar routes item-similarity queries by item id — the item's
// factor row is model-global so any shard can answer; routing by item
// keeps per-shard working sets (and any future per-shard caches) tight.
func (r *Router) handleSimilar(w http.ResponseWriter, req *http.Request) {
	itemParam := req.URL.Query().Get("item")
	i, err := strconv.ParseInt(itemParam, 10, 32)
	if err != nil || i < 0 {
		r.writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid item %q", itemParam)})
		return
	}
	res := r.forward(req.Context(), UserKey(int32(i))^0x5bd1e995, "/similar?"+req.URL.RawQuery, false)
	if res.err != nil {
		r.unavailable.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(1+r.rng.Intn(3)))
		r.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no shard available"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// serveFallback walks the bottom rungs of the degradation ladder once
// every shard attempt has failed: router-local stale top-K, then the
// popularity ranking, then an honest 503. Every rung labels the
// response — a degraded answer is fine, a silently degraded one is not.
func (r *Router) serveFallback(w http.ResponseWriter, rk requestKey) {
	if rk.user != nil {
		if body, ok := r.stale.get(staleKey{user: *rk.user, k: rk.k}); ok {
			r.degraded.With(DegradedStaleCache).Inc()
			splice(w, body, staleSuffix)
			return
		}
	}
	if r.pop != nil {
		if items, ok := r.pop.topK(rk.user, rk.history, rk.k); ok {
			r.degraded.With(DegradedPopRank).Inc()
			r.writeJSON(w, http.StatusOK, Response{User: rk.user, Items: items, Degraded: DegradedPopRank})
			return
		}
	}
	r.unavailable.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(1+r.rng.Intn(3)))
	r.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "no shard available"})
}

// attemptResult is one shard attempt's outcome. err != nil means the
// shard did not produce a usable HTTP response (transport failure, torn
// or undecodable body, 5xx, 429 shed, timeout); err == nil carries status
// and body, where any 2xx or non-429 4xx is a healthy-shard outcome.
type attemptResult struct {
	shard  *shardState
	status int
	body   []byte
	// rec is the decoded body of a 200 when forward was asked to decode and
	// the body was not serve's own encoding; nil for one scanRecommend took,
	// which is relayed from body.
	rec  *Response
	err  error
	home bool // shard is the key's first preference (set by forward)
}

// forward pushes one GET through the shard tier: preference-ordered
// candidates from the ring, breaker-gated attempts, bounded retries with
// full-jitter backoff, and a p95-delayed hedge per attempt. It returns
// the first usable response or, after the budget is spent, the last
// error (err != nil) for the caller to degrade on. With decode set, a
// 200 must also parse as a Response to be usable: scanRecommend accepts it,
// or failing that json.Unmarshal does.
func (r *Router) forward(ctx context.Context, key uint64, pathQuery string, decode bool) attemptResult {
	pref := r.ring.Lookup(key)
	pos := 0
	last := attemptResult{err: errors.New("cluster: no eligible shard")}
	for attempt := 0; attempt <= r.cfg.MaxRetries; attempt++ {
		// Sleep before reserving a breaker slot: nextEligible's Allow()
		// reservation must never be held across a sleep, or a canceled
		// backoff would leak the half-open probe slot and wedge the
		// breaker. Sleeping first also lets Retry-After holds expire
		// before the preference walk rules shards out.
		if attempt > 0 {
			r.retries.Inc()
			if !sleepCtx(ctx, backoffDelay(r.rng, r.cfg.RetryBase, r.cfg.RetryMax, attempt-1)) {
				last.err = ctx.Err()
				return last
			}
		}
		sh := r.nextEligible(pref, &pos)
		if sh == nil {
			return last
		}
		res := r.attemptHedged(ctx, sh, pref, &pos, pathQuery, decode)
		if res.err == nil {
			res.home = res.shard == r.shards[pref[0]]
			return res
		}
		last = res
		if ctx.Err() != nil {
			return last
		}
	}
	return last
}

// nextEligible scans the preference order from *pos for a shard whose
// membership and breaker admit an attempt, reserving the breaker slot.
// It advances *pos past the returned shard so retries and hedges walk
// onward instead of re-picking the same failure.
func (r *Router) nextEligible(pref []int, pos *int) *shardState {
	now := time.Now()
	for *pos < len(pref) {
		sh := r.shards[pref[*pos]]
		*pos++
		if !sh.eligible(now) {
			continue
		}
		if !sh.breaker.Allow() {
			continue
		}
		return sh
	}
	return nil
}

// sleepCtx sleeps for d unless ctx ends first; reports whether the full
// sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// hedgeDelay is when a hedge fires: the router-observed p95 latency,
// floored so a fast cluster does not hedge every request, defaulting
// while the latency window is cold.
func (r *Router) hedgeDelay() time.Duration {
	d := r.lat.Quantile(0.95, 32, r.cfg.HedgeDefault)
	if d < r.cfg.HedgeFloor {
		d = r.cfg.HedgeFloor
	}
	return d
}

// attemptHedged runs one attempt against sh on the caller's goroutine, and
// — if sh has not answered within the hedge delay — a timer fires the
// identical request at the next eligible shard, letting the first usable
// answer win. The loser is canceled; its breaker reservation is released
// without recording an outcome, so hedging never trips a breaker on a shard
// that was merely slower than its twin. Primary has already passed
// breaker.Allow.
func (r *Router) attemptHedged(ctx context.Context, sh *shardState, pref []int, pos *int, pathQuery string, decode bool) attemptResult {
	if r.cfg.NoHedge {
		return r.doAttempt(ctx, sh, pathQuery, decode)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the hedge, if it is still out, is now moot
	// mu orders the timer against the primary's return: the hedge starts, and
	// moves *pos, only while the primary is out.
	var h struct {
		mu          sync.Mutex
		primaryDone bool
		done        chan struct{} // made when the hedge starts, closed once res is set
		res         attemptResult
	}
	t := time.AfterFunc(r.hedgeDelay(), func() {
		h.mu.Lock()
		var hs *shardState
		if !h.primaryDone {
			hs = r.nextEligible(pref, pos)
		}
		if hs != nil {
			h.done = make(chan struct{})
		}
		h.mu.Unlock()
		if hs == nil {
			return
		}
		r.hedges.Inc()
		res := r.doAttempt(hctx, hs, pathQuery, decode)
		h.mu.Lock()
		h.res = res
		if res.err == nil && !h.primaryDone {
			cancel() // the primary returns at once, canceled
		}
		h.mu.Unlock()
		close(h.done)
	})
	res := r.doAttempt(hctx, sh, pathQuery, decode)
	t.Stop()
	h.mu.Lock()
	h.primaryDone = true
	hedged := h.done
	h.mu.Unlock()
	if res.err == nil || hedged == nil {
		return res
	}
	<-hedged // bounded by the hedge's own attempt timeout
	if h.res.err == nil {
		r.hedgeWins.Inc()
	}
	return h.res
}

// doAttempt issues one HTTP GET against sh and settles its breaker (see
// settle); a 200 that does not decode, when decode asks for a Response, is
// a failure too. The outbound request carries the current trace context
// (traceparent), so a shard's stage spans join the router's trace.
func (r *Router) doAttempt(ctx context.Context, sh *shardState, pathQuery string, decode bool) attemptResult {
	sp := trace.StartSpanNoCtx(ctx, sh.span)
	defer sp.End()
	t0 := time.Now()
	ans, err := sh.conns.exchange(ctx, r.cfg.AttemptTimeout, http.MethodGet, pathQuery, "", nil)
	took := time.Since(t0) // the shard's answer, not the router's decode of it
	var rec *Response
	if err == nil && decode && ans.status == http.StatusOK && !scanRecommend(ans.body) {
		rec = new(Response)
		if uerr := json.Unmarshal(ans.body, rec); uerr != nil {
			// The transfer completed but the payload is garbage: the shard
			// is lying, and a replica may not be.
			err = fmt.Errorf("undecodable 200: %w", uerr)
		}
	}
	res := r.settle(ctx, sh, ans, err)
	if res.err == nil {
		res.rec = rec
		r.lat.Observe(took)
	}
	return res
}

// settle charges sh's breaker for one exchange and shapes the attempt's
// result: Success on any 2xx/4xx except 429 (the shard is healthy; a 4xx is
// the client's problem), Failure on transport errors, torn bodies,
// per-attempt timeouts, 5xx, and 429 (the shard is shedding — back off and
// fail over), and Cancel — no outcome — when the caller's context ended
// first (hedge race lost, caller gone, or the client's deadline expired),
// since none of those are the shard's fault. A 429/503 Retry-After is
// honored by holding the shard out of the candidate set until it expires.
func (r *Router) settle(ctx context.Context, sh *shardState, ans shardAnswer, err error) attemptResult {
	switch {
	case err != nil && ctx.Err() != nil:
		sh.breaker.Cancel()
		r.shardReqs.With(sh.name, "canceled").Inc()
		return attemptResult{shard: sh, err: err}
	case err != nil:
		// Includes the torn response: the shard died (or lied about
		// Content-Length) mid-body, and the bytes that did arrive are not
		// trustworthy.
		r.shardFailure(sh)
		return attemptResult{shard: sh, err: fmt.Errorf("cluster: shard %s: %w", sh.name, err)}
	case ans.status >= 500 || ans.status == http.StatusTooManyRequests:
		// 503 and 429 are both shed signals (DESIGN.md back-pressure):
		// honor Retry-After with a notBefore hold so the preference
		// walk routes around the shedding shard instead of queueing.
		if ans.status == http.StatusServiceUnavailable || ans.status == http.StatusTooManyRequests {
			if secs, err := strconv.Atoi(ans.retryAfter); err == nil && secs > 0 {
				sh.notBefore.Store(time.Now().Add(time.Duration(secs) * time.Second).UnixNano())
			}
		}
		r.shardFailure(sh)
		return attemptResult{shard: sh, status: ans.status, body: ans.body,
			err: fmt.Errorf("cluster: shard %s returned %d", sh.name, ans.status)}
	}
	sh.breaker.Success()
	r.shardReqs.With(sh.name, "ok").Inc()
	return attemptResult{shard: sh, status: ans.status, body: ans.body}
}

// shardFailure settles a failed attempt: breaker bookkeeping plus the
// open-transition metric when this failure was the one that tripped it.
func (r *Router) shardFailure(sh *shardState) {
	before := sh.breaker.Opens()
	sh.breaker.Failure()
	r.shardReqs.With(sh.name, "error").Inc()
	if after := sh.breaker.Opens(); after > before {
		r.breakerOpens.With(sh.name).Inc()
		r.brkGauge.With(sh.name).Set(float64(BreakerOpen))
		r.log.Warn("circuit breaker opened", "shard", sh.name, "opens", after)
	}
}
