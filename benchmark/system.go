package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"clapf/internal/cluster"
	"clapf/internal/feedback"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/retrieval"
	"clapf/internal/serve"
	"clapf/internal/store"
)

// shardOpts is what distinguishes the shards of the serving workloads.
// Everything else is left the way cmd/clapf-serve defaults it.
type shardOpts struct {
	f32      bool // float32 v3 file, mmap-loaded and verified (-store-mmap); else float64 v2
	ivf      bool // -retrieval ivf at index defaults; else exact
	cache    int  // -cache-size
	feedback bool // -feedback-log on a temp dir, -feedback-sync 1
	traced   bool // also expose a listener whose handler traces
}

// shard is one in-process clapf-serve: the server, its loopback
// listener(s), and, with feedback, its WAL, ingestor and promoter.
type shard struct {
	name      string
	dir       string
	modelPath string
	srv       *serve.Server
	plain     *httptest.Server // handler built with tracing off
	traced    *httptest.Server // handler built with tracing on; nil unless opts.traced
	handler   http.Handler     // the handler behind plain, for in-process replays
	mapped    *store.MappedModel
	wal       *feedback.WAL
	ing       *feedback.Ingestor
	prom      *feedback.Promoter
	fsync     *obs.Histogram
	stopVital func()

	saveTime, loadTime time.Duration
}

// listen starts a loopback listener configured like cmd/clapf-serve's
// http.Server.
func listen(h http.Handler) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ReadHeaderTimeout = 5 * time.Second
	ts.Config.ReadTimeout = 10 * time.Second
	ts.Config.WriteTimeout = 30 * time.Second
	ts.Config.IdleTimeout = 2 * time.Minute
	ts.Start()
	return ts
}

// startShard writes the model file, loads it back the way the command
// would, and brings the server up: store → serve (→ retrieval) (→
// feedback), in the order cmd/clapf-serve's run() does it.
func startShard(name, dir string, cat *catalog, o shardOpts) (sh *shard, err error) {
	sh = &shard{name: name, dir: dir, modelPath: filepath.Join(dir, "model.clapf")}
	defer func() {
		if err != nil {
			sh.stop()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sh, err
	}
	var meta *store.Meta
	if o.f32 {
		t0 := time.Now()
		if err := store.SaveF32File(sh.modelPath, mf.QuantizeF32(cat.model), nil); err != nil {
			return sh, err
		}
		sh.saveTime = time.Since(t0)
		t0 = time.Now()
		if sh.mapped, err = store.LoadMapped(sh.modelPath); err != nil {
			return sh, err
		}
		if err := sh.mapped.Verify(); err != nil {
			return sh, err
		}
		sh.loadTime = time.Since(t0)
		if sh.srv, err = serve.NewFromParams(sh.mapped.Factors(), cat.train); err != nil {
			return sh, err
		}
		sh.srv.SetStoreMapped(true)
	} else {
		t0 := time.Now()
		if err := store.SaveFile(sh.modelPath, cat.model); err != nil {
			return sh, err
		}
		sh.saveTime = time.Since(t0)
		t0 = time.Now()
		var m *mf.Model
		if m, meta, err = store.LoadFileWithMeta(sh.modelPath); err != nil {
			return sh, err
		}
		sh.loadTime = time.Since(t0)
		if sh.srv, err = serve.New(m, cat.train); err != nil {
			return sh, err
		}
	}
	sh.srv.SetCacheSize(o.cache)
	mode := retrieval.ModeExact
	if o.ivf {
		mode = retrieval.ModeIVF
	}
	if err := sh.srv.SetRetrieval(mode, retrieval.Config{}); err != nil {
		return sh, err
	}
	sh.stopVital = sh.srv.StartRuntimeSampler(10 * time.Second)
	if o.feedback {
		sh.fsync = sh.srv.Registry().NewHistogram("clapf_feedback_fsync_seconds",
			"Feedback WAL fsync latency (group commits).", obs.ExponentialBuckets(1e-5, 4, 10))
		if sh.wal, _, err = feedback.OpenWAL(filepath.Join(dir, "wal"), feedback.WALConfig{
			SyncEvery: 1, SyncInterval: 5 * time.Millisecond, FsyncSeconds: sh.fsync,
		}); err != nil {
			return sh, err
		}
		sh.ing = feedback.NewIngestor(sh.wal, cat.train, feedback.Config{FoldInReg: sh.srv.FoldInReg}, sh.srv.Registry())
		var folded uint64
		if meta != nil {
			folded = meta.FeedbackSeq
		}
		sh.ing.SetFolded(folded)
		if _, err := sh.ing.Replay(); err != nil {
			return sh, err
		}
		sh.ing.Bind(sh.srv)
		if err := sh.srv.EnableFeedback(sh.ing); err != nil {
			return sh, err
		}
		if sh.prom, err = feedback.NewPromoter(sh.ing, sh.srv, feedback.PromoteConfig{ModelPath: sh.modelPath}); err != nil {
			return sh, err
		}
	}
	sh.srv.SetTracing(false)
	sh.handler = sh.srv.Handler()
	sh.plain = listen(sh.handler)
	if o.traced {
		sh.srv.SetTracing(true)
		sh.traced = listen(sh.srv.Handler())
	}
	return sh, nil
}

// stop shuts the listeners, the WAL and the mapping; safe on a partly
// started shard.
func (sh *shard) stop() {
	if sh.plain != nil {
		sh.plain.Close()
	}
	if sh.traced != nil {
		sh.traced.Close()
	}
	if sh.stopVital != nil {
		sh.stopVital()
	}
	if sh.wal != nil {
		sh.wal.Close() // error ignored: the replay check reopens the log and would see a bad close
	}
	// The mapping is left to its finalizer, as the server does on a swap:
	// a request goroutine may still hold the factors.
}

// system is what a serving workload runs against: one shard, or a router
// over several. front is where clients connect with tracing off,
// frontTraced the same system through tracing handlers.
type system struct {
	shards      []*shard
	router      *cluster.Router
	ring        *cluster.Ring
	front       string
	frontTraced string
	closers     []func()
	stopped     bool
}

// stop tears the system down once; later calls do nothing.
func (s *system) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	for _, sh := range s.shards {
		sh.stop()
	}
}

// owner returns the shard that owns user u.
func (s *system) owner(u int32) *shard {
	if s.ring == nil {
		return s.shards[0]
	}
	return s.shards[s.ring.Lookup(cluster.UserKey(u))[0]]
}

func startSingle(dir string, cat *catalog, o shardOpts) (*system, error) {
	sh, err := startShard("shard-0", dir, cat, o)
	if err != nil {
		return nil, err
	}
	s := &system{shards: []*shard{sh}, front: sh.plain.URL}
	if sh.traced != nil {
		s.frontTraced = sh.traced.URL
	}
	return s, nil
}

const routedShards = 3

// startRouted brings up routedShards shards side by side (each is its own
// process in production, so their set-up overlaps) and a router over them
// configured like cmd/clapf-router's flag defaults, prober and feedback
// flusher running.
func startRouted(dir string, cat *catalog, o shardOpts, seed uint64) (*system, error) {
	s := &system{shards: make([]*shard, routedShards)}
	errs := make([]error, routedShards)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("shard-%d", i)
			s.shards[i], errs[i] = startShard(name, filepath.Join(dir, name), cat, o)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.stop()
			return nil, err
		}
	}
	names := make([]string, routedShards)
	for i, sh := range s.shards {
		names[i] = sh.name
	}
	var err error
	if s.ring, err = cluster.NewRing(names, 64); err != nil {
		s.stop()
		return nil, err
	}
	route := func(url func(*shard) string) (string, error) {
		cfgs := make([]cluster.ShardConfig, routedShards)
		for i, sh := range s.shards {
			cfgs[i] = cluster.ShardConfig{Name: sh.name, URL: url(sh)}
		}
		r, err := cluster.NewRouter(cluster.Config{
			Shards:         cfgs,
			VNodes:         64,
			MaxRetries:     3,
			AttemptTimeout: 2 * time.Second,
			StaleCacheSize: 4096,
			Breaker:        cluster.BreakerConfig{FailureThreshold: 5, Cooldown: 2 * time.Second},
			Probe:          cluster.ProbeConfig{Interval: time.Second, Timeout: 500 * time.Millisecond},
			Feedback:       cluster.FeedbackConfig{BufferSize: 4096, FlushInterval: 250 * time.Millisecond},
			Seed:           seed,
		})
		if err != nil {
			return "", err
		}
		ts := listen(r.Handler())
		s.closers = append(s.closers, r.StartProber(), r.StartFeedbackFlusher(), ts.Close)
		if s.router == nil {
			s.router = r
		}
		return ts.URL, nil
	}
	if s.front, err = route(func(sh *shard) string { return sh.plain.URL }); err == nil && o.traced {
		s.frontTraced, err = route(func(sh *shard) string { return sh.traced.URL })
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}
