// Package serve exposes a trained CLAPF model over HTTP — the deployment
// surface a downstream adopter runs behind their application. Endpoints:
//
//	GET  /healthz                     liveness + model dimensions + uptime/request totals
//	GET  /readyz                      readiness (503 while draining or before a model is live)
//	GET  /recommend?user=U&k=K        top-k unobserved items for a known user
//	GET  /recommend?items=1,2,3&k=K   cold-start: fold the history in, then rank
//	POST /recommend/batch             many users and/or histories in one request
//	GET  /similar?item=I&k=K          nearest items by factor cosine
//	GET  /metrics                     Prometheus text exposition
//	POST /admin/reload                hot model reload (opt-in: EnableAdminReload)
//
// All responses are JSON except /metrics. Handlers are read-only over an
// immutable dataset and a liveState — the model, its scoring engine, and
// its top-K result cache — held behind one atomic pointer, so they are
// safe for concurrent use and the model can be hot-swapped (SIGHUP in
// cmd/clapf-serve) without dropping a request. Because the cache travels
// inside the liveState, a swap invalidates it atomically: no request can
// pair the new model with entries computed under the old one. The handler
// chain is hardened (see harden.go): panics become 500s, overload sheds
// with 503 (probes exempt), and every request carries a deadline. Every
// request is recorded in the server's obs.Registry.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/obs/trace"
	"clapf/internal/rank"
	"clapf/internal/retrieval"
	"clapf/internal/score"
	"clapf/internal/store"
)

// liveState bundles everything that must change together when the model is
// swapped: the parameter set (a float64 *mf.Model or a float32, possibly
// mmap-backed, *mf.Factors32), the scoring engine built over it, the
// retrieval index (IVF mode only) built from it, and the top-K cache of
// its results. Requests load it once and use only that snapshot, so even
// mid-swap a request is internally consistent — an index can never be
// paired with item parameters other than the ones it packed, and a cache
// can never serve another generation's answers. An mmap-backed generation
// needs no explicit teardown on retirement: the Factors32 pins its mapping,
// and a finalizer releases the pages once the last request-held snapshot
// is gone (see store.Open).
type liveState struct {
	params mf.Params
	// base is the read-only parameter set under params. With streaming
	// feedback enabled, params is an *mf.Overlay wrapping base (online
	// user-factor updates land in the overlay); otherwise params == base.
	base    mf.Params
	overlay *mf.Overlay // nil when feedback is disabled
	eng     *score.Engine
	mode    retrieval.Mode
	index   *retrieval.Index // nil in exact mode
	// indexCfg is the configuration index was built under; with the rows
	// index packed it decides whether the next install may carry it over.
	indexCfg retrieval.Config
	cache    *resultCache
}

// DefaultCacheSize bounds the per-generation top-K result cache.
const DefaultCacheSize = 4096

// DefaultMaxBatch bounds entries per /recommend/batch request.
const DefaultMaxBatch = 256

// Server serves recommendations from a trained model. train supplies the
// observed-item exclusions for known users and must match the model's
// dimensions. Configure the exported fields before calling Handler.
type Server struct {
	live  atomic.Pointer[liveState]
	train *dataset.Dataset
	// FoldInReg is the ridge strength for cold-start fold-in.
	FoldInReg float64
	// MaxK caps the k query parameter.
	MaxK int
	// MaxHistory caps the distinct items of a cold-start history (after
	// dedupe); larger requests are rejected with 400 (an unbounded list is
	// a trivial CPU/memory DoS on the fold-in path).
	MaxHistory int
	// MaxBatch caps entries per /recommend/batch request.
	MaxBatch int
	// MaxInFlight bounds concurrently handled recommendation requests;
	// excess load is shed with 503 + Retry-After. <= 0 disables shedding.
	MaxInFlight int
	// RequestTimeout is the per-request context deadline. <= 0 disables it.
	RequestTimeout time.Duration

	// cacheSize is the top-K cache capacity applied when a liveState is
	// built; change it through SetCacheSize, which also rebuilds the
	// current generation's cache.
	cacheSize atomic.Int64
	// retr is the retrieval strategy applied whenever a liveState is
	// built; change it through SetRetrieval.
	retr atomic.Pointer[retrievalSettings]
	// swapMu serializes liveState rebuilds (Install, SetCacheSize,
	// SetRetrieval). Readers stay lock-free; without this, two concurrent
	// rebuilds could interleave their load-build-store sequences and
	// publish a state derived from a model that was just swapped out.
	swapMu sync.Mutex

	ready       atomic.Bool
	shedSem     chan struct{} // the live shed semaphore (test hook)
	adminReload func() error  // optional /admin/reload action (EnableAdminReload)
	// feedback is the optional streaming-ingest sink. Atomic because
	// EnableFeedback supports late wiring: request goroutines may already
	// be serving when the sink is attached, and they read it lock-free
	// (positivesFor, handleFeedback, handleHealth). Read via feedbackSink.
	feedback       atomic.Pointer[FeedbackSink]
	jitterMu       sync.Mutex
	jitter         *mathx.RNG    // Retry-After jitter; RNG is not concurrency-safe
	generation     atomic.Uint64 // model swaps since construction
	log            *slog.Logger
	reg            *obs.Registry
	httpm          *obs.HTTPMetrics
	tracer         *trace.Tracer
	traceOff       atomic.Bool
	vitals         *obs.RuntimeSampler
	encodeErrors   *obs.Counter
	panics         *obs.Counter
	sheds          *obs.Counter
	reloadOK       *obs.Counter
	reloadFail     *obs.Counter
	reloadRejected *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	nonfinite      *obs.Counter
	indexBuild     *obs.Histogram
	indexReused    *obs.Counter
	onlineRejected *obs.Counter // registered by EnableFeedback
	started        time.Time
}

// New validates the pair and returns a Server with its own metrics
// registry and a no-op logger (install a real one with SetLogger).
func New(model *mf.Model, train *dataset.Dataset) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	return NewFromParams(model, train)
}

// NewFromParams is New for any parameter representation — whatever
// store.Open made of the model file.
func NewFromParams(model mf.Params, train *dataset.Dataset) (*Server, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	if train == nil {
		return nil, fmt.Errorf("serve: nil training dataset")
	}
	if err := validateParams(model, train); err != nil {
		return nil, err
	}
	s := &Server{
		train:          train,
		FoldInReg:      0.1,
		MaxK:           100,
		MaxHistory:     1024,
		MaxBatch:       DefaultMaxBatch,
		MaxInFlight:    256,
		RequestTimeout: 10 * time.Second,
		log:            obs.NopLogger(),
		reg:            obs.NewRegistry(),
		started:        time.Now(),
	}
	// Seeded from the clock: Retry-After jitter must differ across
	// processes or a fleet's shed clients re-synchronize anyway.
	s.jitter = mathx.NewRNG(uint64(s.started.UnixNano()))
	s.cacheSize.Store(DefaultCacheSize)
	s.retr.Store(&retrievalSettings{})
	s.indexBuild = s.reg.NewHistogram("clapf_index_build_seconds",
		"Wall time of each IVF index build (boot, SetRetrieval, and installs whose item parameters changed).",
		obs.ExponentialBuckets(0.001, 2, 14))
	s.indexReused = s.reg.NewCounter("clapf_index_reused_total",
		"Installs that carried the live IVF index over because the item parameters and retrieval config were unchanged.")
	if err := s.install(model, KeepFoldedSeq); err != nil {
		return nil, err
	}
	s.ready.Store(true)
	s.httpm = obs.NewHTTPMetrics(s.reg, "clapf_")
	s.tracer = trace.New(s.reg, "clapf_", trace.Config{SampleRate: 0.01})
	s.vitals = obs.NewRuntimeSampler()
	s.vitals.Register(s.reg, "clapf_")
	s.encodeErrors = s.reg.NewCounter("clapf_encode_errors_total",
		"JSON response bodies that failed to encode after the header was written.")
	s.panics = s.reg.NewCounter("clapf_panics_total",
		"Handler panics recovered into 500 responses.")
	s.sheds = s.reg.NewCounter("clapf_load_shed_total",
		"Requests shed with 503 because the in-flight cap was reached.")
	reloads := s.reg.NewCounterVec("clapf_model_reloads_total",
		"Hot model reload attempts by result.", "result")
	s.reloadOK = reloads.With("ok")
	s.reloadFail = reloads.With("error")
	s.reloadRejected = s.reg.NewCounter("clapf_model_reload_rejected_total",
		"Candidate models refused at swap time (shape mismatch or non-finite parameters); the previous generation keeps serving.")
	s.cacheHits = s.reg.NewCounter("clapf_cache_hits_total",
		"Top-K recommendation requests answered from the result cache.")
	s.cacheMisses = s.reg.NewCounter("clapf_cache_misses_total",
		"Cacheable top-K requests that had to be scored.")
	s.cacheEvictions = s.reg.NewCounter("clapf_cache_evictions_total",
		"Result-cache entries evicted to stay within the capacity bound.")
	s.nonfinite = s.reg.NewCounter("clapf_nonfinite_scores_total",
		"Candidate scores dropped from rankings for being NaN or ±Inf — any nonzero value means the served model is damaged.")
	s.reg.NewGaugeFunc("clapf_cache_entries",
		"Entries currently in the live generation's top-K result cache.",
		func() float64 { return float64(s.live.Load().cache.size()) })
	s.reg.NewGaugeFunc("clapf_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.NewGaugeFunc("clapf_model_users", "Users in the served model.",
		func() float64 { return float64(s.Params().NumUsers()) })
	s.reg.NewGaugeFunc("clapf_model_items", "Items in the served model.",
		func() float64 { return float64(s.Params().NumItems()) })
	s.reg.NewGaugeFunc("clapf_model_dim", "Latent dimensionality of the served model.",
		func() float64 { return float64(s.Params().Dim()) })
	s.reg.NewGaugeFunc("clapf_model_param_bytes",
		"Bytes of factor parameters in the served model (float32 serving halves this).",
		func() float64 { return float64(s.Params().ParamBytes()) })
	s.reg.NewGaugeFunc("clapf_model_generation",
		"Successful model swaps since the server started.",
		func() float64 { return float64(s.generation.Load()) })
	s.reg.NewGaugeFunc("clapf_retrieval_ivf",
		"1 while approximate IVF retrieval is live, 0 for exact scoring.",
		func() float64 {
			if s.live.Load().mode == retrieval.ModeIVF {
				return 1
			}
			return 0
		})
	s.reg.NewGaugeFunc("clapf_ivf_cells",
		"Inverted-list cells in the live IVF index (0 in exact mode).",
		func() float64 {
			if ix := s.live.Load().index; ix != nil {
				return float64(ix.NLists())
			}
			return 0
		})
	s.reg.NewGaugeFunc("clapf_ready",
		"1 while the server accepts traffic, 0 while draining.",
		func() float64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	return s, nil
}

// validateParams checks a candidate parameter set against the exclusion
// dataset — the gate every swap must pass so a mismatched file can never
// go live. Besides the shape check it scans for non-finite parameters: a
// model poisoned by divergent training loads and checksums fine (NaN is a
// valid float bit pattern), but every score touching a poisoned row would
// be dropped by the rank layer, silently degrading results. Refusing the
// swap keeps the previous healthy generation serving. For float32 sets
// the scan also catches export-time overflow (out-of-range float64 values
// quantize to ±Inf).
func validateParams(m mf.Params, train *dataset.Dataset) error {
	if m.NumUsers() != train.NumUsers() || m.NumItems() != train.NumItems() {
		return fmt.Errorf("serve: model is %d×%d but dataset is %d×%d",
			m.NumUsers(), m.NumItems(), train.NumUsers(), train.NumItems())
	}
	if u, v, b := m.CountNonFinite(); u+v+b > 0 {
		return fmt.Errorf("serve: model carries %d non-finite parameters (%d user, %d item, %d bias)",
			u+v+b, u, v, b)
	}
	return nil
}

// SetLogger installs the structured logger used for serve-path warnings
// (encode failures and the like). nil restores the no-op logger.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.NopLogger()
	}
	s.log = l
	s.tracer.SetLogger(l)
}

// Tracer exposes the server's request tracer so callers can tune
// sampling (SetSampleRate, SetSlowThreshold) or read the flight
// recorder out-of-band.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// SetTracing enables or disables request tracing; Handler must be
// rebuilt for a change to take effect. With tracing off, requests carry
// no trace context: stage spans degrade to a nil-check and the stage
// histogram and flight recorder go quiet. The bench harness uses this
// for its traced-vs-untraced comparison.
func (s *Server) SetTracing(on bool) { s.traceOff.Store(!on) }

// RuntimeVitals returns the most recent runtime sample (resampled when
// older than a second) — the /healthz source of truth.
func (s *Server) RuntimeVitals() obs.RuntimeVitals { return s.vitals.Latest(time.Second) }

// StartRuntimeSampler launches the background runtime-vitals loop so
// /healthz and the clapf_goroutines/heap/gc gauges stay fresh even with
// no scrape traffic. Returns a stop function; without this call the
// sampler still refreshes lazily on access.
func (s *Server) StartRuntimeSampler(interval time.Duration) (stop func()) {
	s.vitals.Start(interval)
	return s.vitals.Stop
}

// Registry exposes the server's metrics registry so callers can add
// their own series or scrape it out-of-band.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Params returns the currently served parameter set.
func (s *Server) Params() mf.Params { return s.live.Load().params }

// Model returns the currently served model when the live parameter set is
// a float64 *mf.Model, and nil when the server is serving float32 factors
// (NewFromParams/Install with an mf.Factors32). With feedback enabled
// the online-update overlay is transparent: this returns the base model
// under it. Callers that only need dimensions or scores should use Params.
func (s *Server) Model() *mf.Model {
	m, _ := s.live.Load().base.(*mf.Model)
	return m
}

// BaseParams returns the read-only parameter set under the live state —
// identical to Params unless streaming feedback has wrapped it in an
// online-update overlay. Fold-in solves on the ingest path run against it
// so they see exactly the factors a promotion export will bake.
func (s *Server) BaseParams() mf.Params { return s.live.Load().base }

// Backing reports how the live base parameters are held — "f64" or "f32",
// and whether they are served from a file mapping instead of the heap.
// Both follow from the model file (store.Open); no option selects them.
func (s *Server) Backing() (precision string, mapped bool) {
	return backing(s.live.Load().base)
}

func backing(base mf.Params) (precision string, mapped bool) {
	if f, ok := base.(*mf.Factors32); ok {
		return "f32", f.Mapped()
	}
	return "f64", false
}

// Generation returns how many successful model swaps have happened.
func (s *Server) Generation() uint64 { return s.generation.Load() }

// CacheSize returns the top-K result cache capacity (0 = disabled).
func (s *Server) CacheSize() int { return int(s.cacheSize.Load()) }

// SetCacheSize resizes the top-K result cache and immediately installs a
// fresh, empty cache of the new size for the current model; n <= 0
// disables caching. Existing entries are dropped, never migrated. The
// model, engine, retrieval mode, and index carry over unchanged.
func (s *Server) SetCacheSize(n int) {
	if n < 0 {
		n = 0
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	s.cacheSize.Store(int64(n))
	st := *s.live.Load()
	st.cache = newResultCache(n)
	s.live.Store(&st)
}

// retrievalSettings is the serving-wide retrieval strategy applied
// whenever a liveState is built.
type retrievalSettings struct {
	mode retrieval.Mode
	cfg  retrieval.Config
}

// Retrieval returns the retrieval mode currently being served.
func (s *Server) Retrieval() retrieval.Mode { return s.live.Load().mode }

// SetRetrieval switches the serving-wide retrieval strategy and rebuilds
// the current generation's liveState under it — in IVF mode that means
// constructing the index for the live model right here, so by the time
// this returns every new request is answered under the new strategy. On
// build failure nothing changes: the old settings and state keep serving.
// Subsequent model swaps build a new index whenever the item parameters
// changed, and carry this one over when they did not.
func (s *Server) SetRetrieval(mode retrieval.Mode, cfg retrieval.Config) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	old := s.retr.Load()
	s.retr.Store(&retrievalSettings{mode: mode, cfg: cfg})
	if err := s.install(s.live.Load().base, KeepFoldedSeq); err != nil {
		s.retr.Store(old)
		return err
	}
	return nil
}

// install builds and publishes the liveState for base parameter set m:
// the retrieval index when IVF mode is on, the online-update overlay when
// feedback is enabled, the scoring engine, plus an empty result cache.
// Publishing the bundle through one pointer store is what makes cache and
// index invalidation atomic with the model swap. Callers must hold swapMu
// (or, in New, be the only goroutine that can see the server).
//
// The index is resolved first, before the feedback sink's lock is taken —
// it depends on m's item parameters and the retrieval config alone, never
// on the overlay — so a half-second build stalls no /feedback ack and no
// cache-missing read, and a failed build is decided before RebuildOverlay
// has moved the sink's watermark.
//
// folded is the feedback watermark m incorporates (KeepFoldedSeq when the
// caller doesn't know — retrieval/cache rebuilds, installs of parameters
// that came from neither a file nor a promotion).
// With a feedback sink attached, the overlay rebuild and the publish run
// under the sink's lock: the sink rebuilds the overlay from events beyond
// the watermark, and because ingest applies updates under the same lock,
// an event is either folded into the overlay being built or applied after
// the new state is published — never dropped in between.
func (s *Server) install(m mf.Params, folded uint64) error {
	retr := s.retr.Load()
	st := &liveState{
		params: m,
		base:   m,
		mode:   retr.mode,
		cache:  newResultCache(int(s.cacheSize.Load())),
	}
	if st.mode == retrieval.ModeIVF {
		st.indexCfg = retr.cfg
		ix, err := s.indexFor(m, st.indexCfg)
		if err != nil {
			return err
		}
		st.index = ix
	}
	if sink := s.feedbackSink(); sink != nil {
		sink.Lock()
		defer sink.Unlock()
		ov, err := sink.RebuildOverlay(m, folded)
		if err != nil {
			return fmt.Errorf("serve: rebuilding online-update overlay: %w", err)
		}
		st.overlay = ov
		st.params = ov
	}
	st.eng = score.NewEngine(st.params)
	s.live.Store(st)
	return nil
}

// indexFor returns the IVF index for base parameter set m under cfg: the
// live one when it was built under cfg and packs m's item half value for
// value (a promotion, a reload that moved no item row, EnableFeedback after
// SetRetrieval), else a fresh build. The build is deterministic in exactly
// those inputs, so a carried index answers as a rebuilt one would.
func (s *Server) indexFor(m mf.Params, cfg retrieval.Config) (*retrieval.Index, error) {
	if prev := s.live.Load(); prev != nil && prev.index != nil && prev.indexCfg == cfg && prev.index.Indexes(m) {
		s.indexReused.Inc()
		s.log.Info("ivf index reused", "cells", prev.index.NLists(), "items", prev.index.NumItems())
		return prev.index, nil
	}
	sp := obs.StartSpan("index.build")
	ix, err := retrieval.BuildIVF(m, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: building IVF index: %w", err)
	}
	took := sp.EndObserve(s.indexBuild)
	s.log.Info("ivf index built", "cells", ix.NLists(), "items", ix.NumItems(), "seconds", took.Seconds())
	return ix, nil
}

// SetReady flips the /readyz signal; cmd/clapf-serve marks the server
// not-ready at the start of a drain so load balancers stop routing to it
// while in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// KeepFoldedSeq passed as a folded watermark means "unknown — keep the
// feedback sink's current watermark". Installs that do not come from a
// promotion or a model file use it.
const KeepFoldedSeq = ^uint64(0)

// ErrGenerationFenced is returned by a fenced Install when another
// install won the race: the candidate was exported against a generation
// that is no longer live, so promoting it could silently roll the model
// back.
var ErrGenerationFenced = fmt.Errorf("serve: generation changed since export; promotion fenced")

// InstallOpts says what an Install candidate is.
type InstallOpts struct {
	// Folded is the feedback WAL sequence number the candidate's user
	// factors incorporate — a model file's FeedbackSeq, a promotion's
	// snapshot — or KeepFoldedSeq when the caller does not know. The
	// feedback overlay is rebuilt to carry only events beyond it.
	Folded uint64
	// ExpectGen, when non-nil, fences the install: it proceeds only if the
	// server's generation still equals *ExpectGen, the generation the
	// candidate was exported against. The check runs under the swap lock,
	// so a SIGHUP reload racing a promotion cannot interleave.
	ExpectGen *uint64
}

// Install is the one way a candidate parameter set — any representation,
// from a file, a promotion or a test — becomes the served model. It is
// validated against the exclusion dataset, then a fresh liveState — model,
// engine, retrieval index (in IVF mode: the live one when it packs the
// candidate's item parameters, else a new build), feedback overlay, and an
// empty result cache — is published in one pointer store, so no request can
// ever serve a previous generation's cached top-K, or probe an index over
// other item parameters, under the new model. A rejected candidate (fence,
// shape mismatch, non-finite parameters, index build failure) leaves model,
// index, cache and generation untouched. The outgoing generation needs no
// teardown: once the last in-flight request drops its liveState snapshot,
// an mmap-backed parameter set is unmapped by its finalizer — and so is a
// rejected one.
func (s *Server) Install(m mf.Params, o InstallOpts) error {
	if m == nil {
		return fmt.Errorf("serve: nil model")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if o.ExpectGen != nil && s.generation.Load() != *o.ExpectGen {
		return ErrGenerationFenced
	}
	if err := validateParams(m, s.train); err != nil {
		s.reloadRejected.Inc()
		return err
	}
	if err := s.install(m, o.Folded); err != nil {
		s.reloadRejected.Inc()
		return err
	}
	s.generation.Add(1)
	return nil
}

// SetStoreMapped does nothing: the model file's version, read by
// store.Open, decides whether a reload maps or parses. It survives only
// because the frozen benchmark/ calls it, and goes at the next benchmark
// re-cut (ROADMAP).
func (s *Server) SetStoreMapped(bool) {}

// ReloadFromFile hot-reloads the model from path: the file is opened and
// checksum-verified the way its version asks (store.Open), its dimensions
// are validated against the dataset, and only then does the pointer swap —
// a torn, corrupt, or mismatched file leaves the old model serving and
// counts as a failed reload. The file's FeedbackSeq watermark (0 for a
// file that never saw feedback) tells the overlay rebuild which WAL events
// the user factors already incorporate.
func (s *Server) ReloadFromFile(path string) error {
	m, meta, err := store.Open(path)
	if err == nil {
		err = s.Install(m, InstallOpts{Folded: meta.FeedbackSeq})
	}
	if err != nil {
		s.reloadFail.Inc()
		s.log.Error("model reload failed; keeping current model", "path", path, "err", err)
		return err
	}
	s.reloadOK.Inc()
	s.log.Info("model reloaded", "path", path, "generation", s.generation.Load())
	return nil
}

// retryAfterSeconds draws the jittered Retry-After value (1–3s) sent
// with shed 503s, so clients that all failed at the same instant do not
// all come back at the same instant.
func (s *Server) retryAfterSeconds() int {
	s.jitterMu.Lock()
	defer s.jitterMu.Unlock()
	return 1 + s.jitter.Intn(3)
}

// EnableAdminReload mounts POST /admin/reload on the next Handler()
// build, running fn (typically a closure over ReloadFromFile with the
// model path) and reporting the result. The endpoint is how a router
// drives rolling reloads over HTTP instead of per-process SIGHUPs; it is
// exempt from shedding — an operator healing an overloaded fleet must
// not be shed by it — and cmd/clapf-serve keeps it opt-in (-admin-reload)
// because an unauthenticated reload trigger does not belong on an
// internet-facing port. nil disables the endpoint again.
func (s *Server) EnableAdminReload(fn func() error) { s.adminReload = fn }

func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if err := s.adminReload(); err != nil {
		s.httpError(r.Context(), w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, struct {
		Status     string `json:"status"`
		Generation uint64 `json:"generation"`
	}{Status: "reloaded", Generation: s.generation.Load()})
}

// normalizeMetricPath keeps the metric path label's cardinality bounded:
// routed endpoints keep their path, everything else collapses.
func normalizeMetricPath(p string) string {
	switch p {
	case "/healthz", "/readyz", "/recommend", "/recommend/batch", "/similar", "/feedback", "/metrics", "/debug/traces", "/admin/reload":
		return p
	}
	return "other"
}

// Handler returns the routed HTTP handler wrapped in the hardening,
// tracing, and metrics middleware: metrics(trace(recover(shed(timeout(
// mux))))), so panics and shed requests are visible both in the request
// metrics and as errored traces, and the shed check itself is a traced
// stage.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /recommend", s.handleRecommend)
	mux.HandleFunc("POST /recommend/batch", s.handleRecommendBatch)
	mux.HandleFunc("GET /similar", s.handleSimilar)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /debug/traces", s.tracer.Handler())
	if s.adminReload != nil {
		mux.HandleFunc("POST /admin/reload", s.handleAdminReload)
	}
	// Mounted unconditionally and gated at request time, so enabling
	// feedback after Handler() has been built (tests, late wiring) still
	// serves the route.
	mux.HandleFunc("POST /feedback", s.handleFeedback)
	var h http.Handler = mux
	h = s.timeoutMiddleware(h)
	h = s.shedMiddleware(h)
	h = s.recoverMiddleware(h)
	if !s.traceOff.Load() {
		h = s.tracer.Middleware(normalizeMetricPath, h)
	}
	return s.httpm.Middleware(normalizeMetricPath, h)
}

// Item is one scored item in a JSON response: the selector's own entry,
// so a ranking reaches the cache and the encoder without a copy.
type Item = rank.Entry

// RecommendResponse is the /recommend payload.
type RecommendResponse struct {
	User  *int32 `json:"user,omitempty"`
	Items []Item `json:"items"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status string `json:"status"`
	Users  int    `json:"users"`
	Items  int    `json:"items"`
	Dim    int    `json:"dim"`
	// ModelGeneration counts successful hot reloads since startup.
	ModelGeneration uint64 `json:"model_generation"`
	// Retrieval names the live retrieval strategy ("exact" or "ivf").
	Retrieval string `json:"retrieval"`
	// Precision ("f64" or "f32") and Mapped (factors served from a file
	// mapping, not the heap) are what the model file decided; see Backing.
	Precision string `json:"precision"`
	Mapped    bool   `json:"mapped"`
	// UptimeSeconds is the time since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RequestsTotal counts requests completed before this one, across
	// all endpoints and status codes.
	RequestsTotal uint64 `json:"requests_total"`
	// Runtime carries the Go runtime vitals from the shared sampler —
	// goroutine count, live heap bytes, and the worst recent GC pause —
	// so a probe shows scheduler and memory pressure without a scrape.
	Runtime obs.RuntimeVitals `json:"runtime"`
	// Feedback carries the streaming-ingest pipeline's state when
	// EnableFeedback is active.
	Feedback *FeedbackStats `json:"feedback,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.live.Load()
	m := st.params
	precision, mapped := backing(st.base)
	resp := HealthResponse{
		Status:          "ok",
		Users:           m.NumUsers(),
		Items:           m.NumItems(),
		Dim:             m.Dim(),
		ModelGeneration: s.generation.Load(),
		Retrieval:       st.mode.String(),
		Precision:       precision,
		Mapped:          mapped,
		UptimeSeconds:   time.Since(s.started).Seconds(),
		RequestsTotal:   s.httpm.TotalRequests(),
		Runtime:         s.RuntimeVitals(),
	}
	if sink := s.feedbackSink(); sink != nil {
		stats := sink.Stats()
		resp.Feedback = &stats
	}
	s.writeJSON(r.Context(), w, http.StatusOK, resp)
}

// handleReady is the routing signal, distinct from liveness: a draining
// process is still alive (healthz 200) but should get no new traffic
// (readyz 503).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.writeJSON(r.Context(), w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	q := r.URL.Query() // parsed once: every Query call parses the string again
	k, err := s.parseK(q)
	if err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, err)
		return
	}

	userParam := q.Get("user")
	itemsParam := q.Get("items")
	switch {
	case userParam != "" && itemsParam != "":
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("pass either user or items, not both"))
	case userParam != "":
		s.recommendKnown(ctx, w, userParam, k)
	case itemsParam != "":
		s.recommendColdStart(ctx, w, itemsParam, k)
	default:
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("missing user or items parameter"))
	}
}

func (s *Server) recommendKnown(ctx context.Context, w http.ResponseWriter, userParam string, k int) {
	st := s.live.Load()
	u64, err := strconv.ParseInt(userParam, 10, 32)
	if err != nil || u64 < 0 || int(u64) >= st.params.NumUsers() {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("invalid user %q", userParam))
		return
	}
	u := int32(u64)
	e, seen := s.topKForUser(ctx, st, u, k)
	if e.body == nil {
		// A miss, or an entry a batch filled: this request is the one that
		// encodes, and every later hit writes its bytes.
		if e.body, err = s.encodeBody(ctx, RecommendResponse{User: &u, Items: e.items}); err != nil {
			s.httpError(ctx, w, http.StatusInternalServerError, err)
			return
		}
		sp := trace.StartSpanNoCtx(ctx, "cache")
		s.fill(st, e, seen)
		sp.End()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body) // a failed write is the client hanging up
}

// encodeBody encodes a /recommend response into a buffer of its own, under
// the "encode" stage — recorded by the request that encodes, so a cache hit,
// which only writes the bytes, records none. The bytes are what writeJSON
// would have written. The scan drops non-finite scores, so a failure means
// a broken payload type; it is counted and logged as writeJSON's is, and
// since nothing has been written yet the client can be told.
func (s *Server) encodeBody(ctx context.Context, resp RecommendResponse) ([]byte, error) {
	sp := trace.StartSpanNoCtx(ctx, "encode")
	defer sp.End()
	// {"item":12345,"score":-1.2345678901234567}, at most 43 bytes and a comma.
	buf := bytes.NewBuffer(make([]byte, 0, 40+44*len(resp.Items)))
	if err := json.NewEncoder(buf).Encode(resp); err != nil {
		s.encodeFailed(err, http.StatusOK, resp)
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return buf.Bytes(), nil
}

// topKForUser answers a known-user top-K from st's cache when possible,
// ranking and filling the cache otherwise; seen is the cache's invalidation
// count the answer was read or computed under, for a caller that fills the
// entry's body in. Each phase is a trace stage, the same vocabulary in both
// retrieval modes and for a cold start: "cache" (lookup, and the fill on a
// miss), "merge" (the exclusion list: the user's positives with any
// ingested feedback, or a sorted history), then miss's stages — "probe" in
// IVF mode, and "score".
func (s *Server) topKForUser(ctx context.Context, st *liveState, u int32, k int) (e cacheEntry, seen uint64) {
	e, seen, ok := s.lookup(ctx, st, cacheKey{user: u, k: k, mode: st.mode})
	if ok {
		return e, seen
	}
	sp := trace.StartSpanNoCtx(ctx, "merge")
	pos := s.positivesFor(u)
	sp.End()
	e.items = s.miss(ctx, st, st.params.UserVector(u, nil), k, pos)
	sp = trace.StartSpanNoCtx(ctx, "cache")
	s.fill(st, e, seen)
	sp.End()
	return e, seen
}

// lookup is the one cache read, under a "cache" stage, and the one place
// the hit and miss counters move, so the single and batch paths report
// identically. A disabled cache counts nothing. seen goes to fill with
// whatever is computed after a miss.
func (s *Server) lookup(ctx context.Context, st *liveState, key cacheKey) (e cacheEntry, seen uint64, ok bool) {
	sp := trace.StartSpanNoCtx(ctx, "cache")
	e, seen, ok = st.cache.get(key)
	sp.End()
	if ok {
		s.cacheHits.Inc()
	} else if st.cache != nil {
		s.cacheMisses.Inc()
	}
	return e, seen, ok
}

// fill is the one cache write and the one place evictions are counted. The
// cache refuses it when a user's entries were invalidated after the lookup
// that saw seen: the exclusion list e was ranked under may predate the
// event, and storing it would serve an acknowledged item back on every hit
// (see positivesFor).
func (s *Server) fill(st *liveState, e cacheEntry, seen uint64) {
	s.cacheEvictions.Add(uint64(st.cache.put(e, seen)))
}

// miss ranks the catalog under one user vector — a stored user's, an
// overlaid row or a cold-start solve, which all have the same shape —
// outside excludeSorted, and is the one place the retrieval mode picks
// the scan: in IVF mode "probe" (centroid scan and cell selection) then
// "score" (the pruned exact re-rank); in exact mode "score" alone, the
// engine's fused scan. Either way a tile of items is scored and offered
// straight to the top-K selector, so exclusion and selection are part of
// "score", no score row exists, and the entries returned are the
// selector's own slice.
func (s *Server) miss(ctx context.Context, st *liveState, uf []float64, k int, excludeSorted []int32) []Item {
	if st.mode == retrieval.ModeIVF {
		sp := trace.StartSpanNoCtx(ctx, "probe")
		cells := st.index.ProbeCells(uf, 0)
		sp.End()
		sp = trace.StartSpanNoCtx(ctx, "score")
		defer sp.End()
		return s.countDropped(st.index.SearchCells(uf, cells, k, excludeSorted))
	}
	sp := trace.StartSpanNoCtx(ctx, "score")
	defer sp.End()
	return s.countDropped(st.eng.TopKFoldIn(uf, k, excludeSorted))
}

// positivesFor returns user u's exclusion set: the training positives,
// extended with any items ingested through /feedback. Without a feedback
// sink — or for users with no ingested events — this is the dataset's own
// slice, shared and allocation-free; with extras it is a fresh sorted
// merge. Every known-user ranking path (exact or IVF, single or batch)
// excludes through it, so an ingested item stops being recommended back to
// its user the moment its append is acknowledged.
func (s *Server) positivesFor(u int32) []int32 {
	pos := s.train.Positives(u)
	if sink := s.feedbackSink(); sink != nil {
		if extra := sink.ExtraPositives(u); len(extra) > 0 {
			pos = dataset.MergeSorted(pos, extra)
		}
	}
	return pos
}

// countDropped is the one funnel every serve-path ranking goes through:
// exclusion and selection are fused into the scan (the engine's or the
// index's), which hands back the entries and how many scores it dropped
// for being non-finite; the drops are counted and logged here. A nonzero
// clapf_nonfinite_scores_total means the live model carries NaN/Inf
// parameters (diverged run, bit-flipped file) — worth an alert, not a
// silent mis-ranking.
func (s *Server) countDropped(top []Item, dropped int) []Item {
	if dropped > 0 {
		s.nonfinite.Add(uint64(dropped))
		s.log.Warn("dropped non-finite scores from ranking",
			"dropped", dropped, "generation", s.generation.Load())
	}
	return top
}

func (s *Server) recommendColdStart(ctx context.Context, w http.ResponseWriter, itemsParam string, k int) {
	st := s.live.Load()
	history, err := parseItemList(itemsParam, st.params.NumItems(), s.MaxHistory)
	if err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, err)
		return
	}
	items, err := s.topKColdStart(ctx, st, history, k)
	if err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(ctx, w, http.StatusOK, RecommendResponse{Items: items})
}

// topKColdStart folds a (deduped) history into user factors and ranks all
// items outside it. Cold-start results are never cached: the history is
// the key and its space is unbounded. Stages: "foldin" (ridge solve),
// "merge" (the history sorted into the scan's exclusion list), then miss's.
func (s *Server) topKColdStart(ctx context.Context, st *liveState, history []int32, k int) ([]Item, error) {
	sp := trace.StartSpanNoCtx(ctx, "foldin")
	uf, err := mf.FoldInUser(st.params, history, s.FoldInReg)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = trace.StartSpanNoCtx(ctx, "merge")
	exclude := slices.Clone(history)
	slices.Sort(exclude)
	sp.End()
	return s.miss(ctx, st, uf, k, exclude), nil
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	m := s.Params()
	q := r.URL.Query()
	k, err := s.parseK(q)
	if err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, err)
		return
	}
	itemParam := q.Get("item")
	i64, err := strconv.ParseInt(itemParam, 10, 32)
	if err != nil || i64 < 0 || int(i64) >= m.NumItems() {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("invalid item %q", itemParam))
		return
	}
	sp := trace.StartSpanNoCtx(ctx, "score")
	sims, err := mf.SimilarItems(m, int32(i64), k)
	sp.End()
	if err != nil {
		s.httpError(ctx, w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(ctx, w, http.StatusOK, RecommendResponse{Items: sims})
}

func (s *Server) parseK(q url.Values) (int, error) {
	kParam := q.Get("k")
	if kParam == "" {
		return 10, nil
	}
	k, err := strconv.Atoi(kParam)
	if err != nil || k < 1 {
		return 0, fmt.Errorf("invalid k %q", kParam)
	}
	if k > s.MaxK {
		k = s.MaxK
	}
	return k, nil
}

// parseItemList parses a comma-separated history and hands the ids to
// dedupeIDs, so the length cap applies to the *unique* count. Capping before
// dedupe would reject legitimate histories padded with repeats (client-side
// logs often carry re-views) while the solve only ever sees each item once;
// the raw parse is linear in the input, which the HTTP layer already bounds.
func parseItemList(param string, numItems, maxItems int) ([]int32, error) {
	parts := strings.Split(param, ",")
	ids := make([]int32, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("invalid item %q", p)
		}
		ids[i] = int32(v)
	}
	return dedupeIDs(ids, numItems, maxItems)
}

// dedupeIDs is the one history check, behind the GET path's token parse
// and the batch endpoint's JSON decode: validate range, drop duplicates,
// and enforce the unique-count cap (cap after dedupe; <= 0 disables it).
// It filters ids in place — both callers decoded the slice themselves.
func dedupeIDs(ids []int32, numItems, maxItems int) ([]int32, error) {
	items := ids[:0]
	seen := make(map[int32]bool, len(ids))
	for _, v := range ids {
		if v < 0 || int(v) >= numItems {
			return nil, fmt.Errorf("item %d out of range [0,%d)", v, numItems)
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		items = append(items, v)
		if maxItems > 0 && len(items) > maxItems {
			return nil, fmt.Errorf("history has over %d distinct items, limit %d", maxItems, maxItems)
		}
	}
	return items, nil
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) httpError(ctx context.Context, w http.ResponseWriter, code int, err error) {
	s.writeJSON(ctx, w, code, errorResponse{Error: err.Error()})
}

// writeJSON writes v with the given status under an "encode" trace
// stage. Encoding errors after the header is written cannot reach the
// client anymore, but they must not vanish either: they are logged and
// counted in clapf_encode_errors_total so a broken payload type shows up
// on a dashboard instead of nowhere.
func (s *Server) writeJSON(ctx context.Context, w http.ResponseWriter, code int, v any) {
	sp := trace.StartSpanNoCtx(ctx, "encode")
	defer sp.End()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeFailed(err, code, v)
	}
}

func (s *Server) encodeFailed(err error, code int, v any) {
	s.encodeErrors.Inc()
	s.log.Error("response encode failed", "err", err, "status", code, "type", fmt.Sprintf("%T", v))
}
