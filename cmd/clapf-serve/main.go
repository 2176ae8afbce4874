// Command clapf-serve exposes a trained model over HTTP.
//
// Usage:
//
//	clapf-serve -model model.clapf -train train.tsv [-addr :8080] [-pprof]
//	            [-retrieval exact|ivf] [-nlist N] [-nprobe P]
//	            [-feedback-log DIR [-promote-every D]]
//
// The model file decides how it is served; no flag does. A float32 file
// (from clapf-train -export-f32) is mapped and scored from the page cache
// by the float32 kernels; a float64 file (clapf-train -out, a checkpoint)
// is parsed onto the heap. /healthz reports which ("precision", "mapped"),
// and a SIGHUP reload follows whatever file is at -model then.
//
// Endpoints (JSON): GET /healthz (liveness, model dims, uptime, request
// totals), GET /readyz (readiness — 503 while draining), GET
// /recommend?user=U&k=K, GET /recommend?items=1,2,3&k=K (cold-start
// fold-in), POST /recommend/batch (up to -max-batch requests per call),
// and GET /similar?item=I&k=K. GET /metrics serves Prometheus text
// exposition (per-endpoint request counts, status codes, latency
// histograms, per-stage latency attribution, cache hit/eviction
// counters, model and runtime gauges). Every request runs under a W3C
// trace (inbound traceparent honoured); GET /debug/traces serves the
// flight recorder of retained traces — a -trace-sample fraction of all
// requests plus every request slower than -trace-slow or errored.
// -pprof additionally mounts net/http/pprof under /debug/pprof/ for
// live profiling. -admin-reload mounts POST /admin/reload so a router
// (cmd/clapf-router) can drive rolling reloads over HTTP; keep it off on
// untrusted networks.
//
// Known-user top-K responses are cached (-cache-size entries, LRU); the
// cache is invalidated atomically whenever the model is swapped, so a
// reload can never serve stale rankings.
//
// -feedback-log DIR enables streaming ingest: POST /feedback appends
// each {user,item} event to a crash-safe segmented WAL and acknowledges
// only after the covering fsync (concurrent appends share one), and
// applies a bounded online fold-in update to the user's serving
// factors and invalidates just that user's cached answers. On restart
// the WAL is replayed — torn tails are truncated, acknowledged events
// are never lost — and -promote-every folds the accumulated log into
// -model on a cadence, hot-promoting the re-export with generation
// fencing; a failed promotion leaves the old generation serving. The
// re-export keeps the representation of the file it started from, so a
// float32 model stays float32 and mapped across promotions.
//
// -retrieval ivf answers top-K queries from a cluster-pruned IVF index
// over the item factors instead of scoring the whole catalog — sublinear
// per-query cost at a small, tunable recall loss (-nlist/-nprobe; the
// defaults land around recall@10 0.95+ at several times exact
// throughput). The index is built at startup and swapped atomically with
// every model reload — rebuilt when the reload moved an item factor or
// bias, carried over when it did not (a feedback promotion never does);
// a model whose index cannot be built is rejected like any other bad
// reload.
//
// The process is hardened for unattended operation: handler panics are
// recovered into 500s, load beyond -max-inflight is shed with 503 +
// Retry-After, every request carries a -request-timeout deadline, and the
// listener enforces read/write/idle timeouts so a slow client cannot pin
// a connection forever. SIGHUP hot-reloads the model from -model without
// dropping a request — a corrupt or mismatched file is rejected and the
// old model keeps serving. SIGINT/SIGTERM flips /readyz to 503 and drains
// in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clapf"
	"clapf/internal/dataset"
	"clapf/internal/feedback"
	"clapf/internal/obs"
	"clapf/internal/retrieval"
	"clapf/internal/serve"
	"clapf/internal/store"
)

// options carries the parsed flags; tests construct it directly and
// inject sigCh/boundAddr instead of sending real signals.
type options struct {
	modelPath, trainPath string
	addr                 string
	pprofOn              bool
	maxInFlight          int
	maxBatch             int
	cacheSize            int
	requestTimeout       time.Duration
	readTimeout          time.Duration
	writeTimeout         time.Duration
	idleTimeout          time.Duration
	traceSample          float64
	traceSlow            time.Duration
	adminReload          bool
	retrievalMode        string
	nlist, nprobe        int
	feedbackLog          string
	promoteEvery         time.Duration
	promotePrune         bool

	// sigCh, when non-nil, replaces signal.Notify delivery.
	sigCh chan os.Signal
	// boundAddr, when non-nil, receives the listener's address once bound.
	boundAddr chan<- string
}

func main() {
	var o options
	flag.StringVar(&o.modelPath, "model", "", "trained model file (required; re-read on SIGHUP)")
	flag.StringVar(&o.trainPath, "train", "", "training dataset TSV, for exclusions (required)")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.BoolVar(&o.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.IntVar(&o.maxInFlight, "max-inflight", 256, "in-flight request cap before shedding with 503 (0 disables)")
	flag.IntVar(&o.maxBatch, "max-batch", serve.DefaultMaxBatch, "entry cap per /recommend/batch request")
	flag.IntVar(&o.cacheSize, "cache-size", serve.DefaultCacheSize, "top-K result cache entries (0 disables caching)")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 10*time.Second, "per-request context deadline (0 disables)")
	flag.DurationVar(&o.readTimeout, "read-timeout", 10*time.Second, "http.Server ReadTimeout")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second, "http.Server WriteTimeout")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	flag.Float64Var(&o.traceSample, "trace-sample", 0.01, "head-sampling probability for keeping a request trace in /debug/traces (slow and errored requests are always kept)")
	flag.DurationVar(&o.traceSlow, "trace-slow", 250*time.Millisecond, "duration beyond which a request trace is always kept and logged")
	flag.BoolVar(&o.adminReload, "admin-reload", false, "mount POST /admin/reload (hot model reload over HTTP, for router-driven rolling reloads; keep off on untrusted networks)")
	flag.StringVar(&o.retrievalMode, "retrieval", "exact", "top-K retrieval strategy: exact (dense scoring) or ivf (cluster-pruned approximate index, rebuilt on a model reload that changes the item factors)")
	flag.IntVar(&o.nlist, "nlist", 0, "IVF cells for -retrieval ivf (0 = 2*sqrt(items))")
	flag.IntVar(&o.nprobe, "nprobe", 0, "IVF cells probed per query for -retrieval ivf (0 = nlist/4)")
	flag.StringVar(&o.feedbackLog, "feedback-log", "", "directory for the streaming-feedback WAL; enables POST /feedback with durable acks and online fold-in updates (works on float64 and float32 model files alike)")
	flag.DurationVar(&o.promoteEvery, "promote-every", 0, "interval for folding the feedback log into -model and hot-promoting it (0 disables the promotion loop)")
	flag.BoolVar(&o.promotePrune, "promote-prune", false, "drop feedback WAL segments already folded into the promoted model (trades disk for forgetting pre-promotion exclusion history on restart)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "clapf-serve:", err)
		os.Exit(1)
	}
}

// buildServer opens the model the way its file asks to be served
// (store.Open), parses the dataset and wires the HTTP server. The returned
// meta is the model file's metadata — its FeedbackSeq watermark seeds the
// feedback ingest pipeline; the dataset is returned so the same parse
// feeds the ingestor.
func buildServer(modelPath, trainPath string) (*serve.Server, *store.Meta, *dataset.Dataset, error) {
	if modelPath == "" || trainPath == "" {
		return nil, nil, nil, fmt.Errorf("-model and -train are required")
	}
	f, err := os.Open(trainPath)
	if err != nil {
		return nil, nil, nil, err
	}
	train, err := clapf.ReadDatasetTSV(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	model, meta, err := store.Open(modelPath)
	if err != nil {
		return nil, nil, nil, err
	}
	server, err := serve.NewFromParams(model, train)
	if err != nil {
		return nil, nil, nil, err
	}
	return server, meta, train, nil
}

// newHandler assembles the final handler: the instrumented serve mux,
// optionally with the pprof endpoints mounted beside it. pprof is opt-in
// because it exposes heap and CPU internals — not something to leave on
// an internet-facing port by default.
func newHandler(server *serve.Server, pprofOn bool) http.Handler {
	h := server.Handler()
	if !pprofOn {
		return h
	}
	top := http.NewServeMux()
	top.Handle("/", h)
	top.HandleFunc("/debug/pprof/", pprof.Index)
	top.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	top.HandleFunc("/debug/pprof/profile", pprof.Profile)
	top.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	top.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return top
}

func run(o options) error {
	logger := obs.NewTextLogger(os.Stderr, slog.LevelInfo)

	server, meta, train, err := buildServer(o.modelPath, o.trainPath)
	if err != nil {
		return err
	}
	server.SetLogger(logger)
	server.MaxInFlight = o.maxInFlight
	server.RequestTimeout = o.requestTimeout
	if o.maxBatch > 0 {
		server.MaxBatch = o.maxBatch
	}
	server.SetCacheSize(o.cacheSize)
	if o.retrievalMode == "" {
		o.retrievalMode = "exact"
	}
	mode, err := retrieval.ParseMode(o.retrievalMode)
	if err != nil {
		return err
	}
	if err := server.SetRetrieval(mode, retrieval.Config{NLists: o.nlist, NProbe: o.nprobe}); err != nil {
		return err
	}
	if o.adminReload {
		server.EnableAdminReload(func() error { return server.ReloadFromFile(o.modelPath) })
	}
	server.Tracer().SetSampleRate(o.traceSample)
	server.Tracer().SetSlowThreshold(o.traceSlow)
	stopSampler := server.StartRuntimeSampler(10 * time.Second)
	defer stopSampler()

	if o.feedbackLog != "" {
		// Order matters: recover the WAL, seed the ingestor's watermark
		// from the model file's FeedbackSeq, replay the retained log into
		// the exclusion/fold-in state, and only then attach the pipeline
		// to the server — EnableFeedback rebuilds the serving overlay from
		// everything the replay recovered beyond the watermark.
		fsync := server.Registry().NewHistogram("clapf_feedback_fsync_seconds",
			"Feedback WAL fsync latency (group commits).",
			obs.ExponentialBuckets(1e-5, 4, 10))
		wal, rec, err := feedback.OpenWAL(o.feedbackLog, feedback.WALConfig{
			FsyncSeconds: fsync,
			Logger:       logger,
		})
		if err != nil {
			return err
		}
		defer wal.Close()
		ing := feedback.NewIngestor(wal, train, feedback.Config{FoldInReg: server.FoldInReg}, server.Registry())
		folded := meta.FeedbackSeq
		if installed := ing.SetFolded(folded); installed != folded {
			logger.Warn("feedback: model watermark exceeds the log; clamped",
				"model_folded_seq", folded, "wal_last_seq", installed,
				"hint", "the model was promoted against a different feedback log")
			folded = installed
		}
		replayed, err := ing.Replay()
		if err != nil {
			return err
		}
		ing.Bind(server)
		if err := server.EnableFeedback(ing); err != nil {
			return err
		}
		logger.Info("feedback ingest enabled", "dir", o.feedbackLog,
			"replayed", replayed, "watermark", folded, "last_seq", wal.LastSeq(),
			"recovered_truncated_bytes", rec.TruncatedBytes)
		if o.promoteEvery > 0 {
			prom, err := feedback.NewPromoter(ing, server, feedback.PromoteConfig{
				Interval:  o.promoteEvery,
				ModelPath: o.modelPath,
				Prune:     o.promotePrune,
				Logger:    logger,
			})
			if err != nil {
				return err
			}
			promCtx, promCancel := context.WithCancel(context.Background())
			defer promCancel()
			go prom.Run(promCtx)
		}
	}
	params := server.Params()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.boundAddr != nil {
		o.boundAddr <- ln.Addr().String()
	}

	httpServer := &http.Server{
		Handler:           newHandler(server, o.pprofOn),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       o.readTimeout,
		WriteTimeout:      o.writeTimeout,
		IdleTimeout:       o.idleTimeout,
	}

	errCh := make(chan error, 1)
	go func() {
		precision, mapped := server.Backing()
		logger.Info("serving", "addr", ln.Addr().String(),
			"users", params.NumUsers(), "items", params.NumItems(), "dim", params.Dim(),
			"retrieval", server.Retrieval().String(), "precision", precision, "mmap", mapped, "pprof", o.pprofOn)
		errCh <- httpServer.Serve(ln)
	}()

	stop := o.sigCh
	if stop == nil {
		stop = make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
		defer signal.Stop(stop)
	}
	for {
		select {
		case err := <-errCh:
			// ErrServerClosed means someone shut the server down cleanly —
			// not a failure even when it arrives without our signal.
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		case sig := <-stop:
			if sig == syscall.SIGHUP {
				// Hot reload; failure keeps the old model serving, so it is
				// logged (by ReloadFromFile) but never fatal.
				_ = server.ReloadFromFile(o.modelPath)
				continue
			}
			logger.Info("draining", "signal", sig.String())
			server.SetReady(false) // /readyz → 503: stop new routing first
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shutdownErr := httpServer.Shutdown(ctx)
			// Shutdown makes Serve return ErrServerClosed; drain it so the
			// goroutine's send never leaks, and surface any real listener
			// error that raced with the signal.
			if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
				return serveErr
			}
			if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
				return shutdownErr
			}
			logger.Info("stopped")
			return nil
		}
	}
}
