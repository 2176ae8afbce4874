package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"clapf/internal/cluster"
	"clapf/internal/feedback"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/rank"
	"clapf/internal/retrieval"
	"clapf/internal/score"
	"clapf/internal/serve"
)

// stageNames are the request stages the server's own tracer attributes
// latency to; their means are read back from the histograms it already
// emits, as a cross-check of the direct-call numbers.
var stageNames = []string{"shed", "cache", "foldin", "score", "topk", "merge", "probe", "encode"}

// scrape renders the registries and sums every series by its full name
// (labels included) across them.
func scrape(regs ...*obs.Registry) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(&buf)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[cut+1:], 64)
			if err != nil {
				continue
			}
			out[line[:cut]] += v
		}
	}
	return out, nil
}

func (s *serving) scrapeShards() (map[string]float64, error) {
	regs := make([]*obs.Registry, len(s.sys.shards))
	for i, sh := range s.sys.shards {
		regs[i] = sh.srv.Registry()
	}
	return scrape(regs...)
}

// runtimeSample reads the Go runtime's own accounting; two samples
// bracket a window.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
	pauses                      *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	var r runtimeSample
	if samples[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = float64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = samples[2].Value.Float64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[3].Value.Float64Histogram()
		r.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	return r
}

// pauseP99MS is the 99th percentile of the GC pauses between two samples,
// read off the runtime's histogram (upper bucket bound).
func pauseP99MS(before, after runtimeSample) float64 {
	if before.pauses == nil || after.pauses == nil {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.pauses.Counts))
	for i := range delta {
		delta[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*0.99) + 1
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			return after.pauses.Buckets[i+1] * 1e3
		}
	}
	return after.pauses.Buckets[len(after.pauses.Buckets)-1] * 1e3
}

// tracedPhases is the run that yields the per-layer numbers: a shorter
// untraced open-loop window (the baseline), the same window through
// tracing handlers, a short closed loop, the workload's side phases,
// replays of a fixed request sample, and direct calls into each layer.
func (s *serving) tracedPhases() error {
	rep, S := s.rep, s.cfg.seconds
	part := func(f float64) time.Duration { return time.Duration(f * S * float64(time.Second)) }
	log := newSpanLog()
	root := log.start("traced-run", -1, -1)

	statsBefore := cluster.Stats{}
	if s.sys.router != nil {
		statsBefore = s.sys.router.RouterStats()
	}
	countersBefore, err := s.scrapeShards()
	if err != nil {
		return err
	}
	rtBefore := readRuntime()
	id := log.start("phase:open", root, -1)
	open, writes, err := s.readWrite(part(0.3), func() phaseResult { return s.openReads(s.readClients(), part(0.3)) })
	log.end(id)
	if err != nil {
		return err
	}
	rtAfter := readRuntime()
	rep.phase(&open)
	if n := float64(open.sent + writes.sent); n > 0 {
		rep.set("runtime.alloc_kb_per_req", (rtAfter.allocBytes-rtBefore.allocBytes)/n/1024)
	}
	if cpu := rtAfter.totalCPU - rtBefore.totalCPU; cpu > 0 {
		rep.set("runtime.gc_cpu_share", (rtAfter.gcCPU-rtBefore.gcCPU)/cpu)
	}
	rep.set("runtime.gc_pause_p99_ms", pauseP99MS(rtBefore, rtAfter))

	// The same load through handlers built with tracing on.
	var tracedClients []*client
	for range s.readClients() {
		c, err := dial(s.sys.frontTraced)
		if err != nil {
			return err
		}
		defer c.close()
		tracedClients = append(tracedClients, c)
	}
	stagesBefore, err := s.scrapeShards()
	if err != nil {
		return err
	}
	id = log.start("phase:open-traced", root, -1)
	topen, _, err := s.readWrite(part(0.3), func() phaseResult { return s.openReads(tracedClients, part(0.3)) })
	topen.name = "open-traced/reads"
	log.end(id)
	if err != nil {
		return err
	}
	rep.phase(&topen)
	stagesAfter, err := s.scrapeShards()
	if err != nil {
		return err
	}
	s.reportStages(stagesBefore, stagesAfter, topen.p(0.5))
	rep.set("serve.trace_overhead_pct", 100*(topen.p(0.5)-open.p(0.5))/open.p(0.5))

	id = log.start("phase:closed", root, -1)
	closed, _, err := s.readWrite(part(0.15), func() phaseResult { return s.closedReads(part(0.15)) })
	log.end(id)
	if err != nil {
		return err
	}
	rep.phase(&closed)
	s.reportReads(&open, &closed)
	if s.def.writeRate > 0 {
		s.reportWrites(&writes)
	}

	countersAfter, err := s.scrapeShards()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return countersAfter[name] - countersBefore[name] }
	if hm := delta("clapf_cache_hits_total") + delta("clapf_cache_misses_total"); hm > 0 {
		rep.set("serve.cache_hit_share", delta("clapf_cache_hits_total")/hm)
	}
	served := delta(`clapf_http_requests_total{path="/recommend",code="200"}`) + delta("clapf_load_shed_total")
	if served > 0 {
		rep.set("serve.shed_share", delta("clapf_load_shed_total")/served)
	}
	if s.sys.router != nil {
		st := s.sys.router.RouterStats()
		n := float64(open.sent + closed.sent)
		var degraded uint64
		for mode, c := range st.Degraded {
			degraded += c - statsBefore.Degraded[mode]
		}
		rep.set("cluster.hedge_share", float64(st.Hedges-statsBefore.Hedges)/n)
		rep.set("cluster.retry_share", float64(st.Retries-statsBefore.Retries)/n)
		rep.set("cluster.degraded_share", float64(degraded)/n)
	}

	id = log.start("phase:side", root, -1)
	switch {
	case s.def.routed:
		err = s.promotionPhase(part(0.25))
	case !s.def.shard.ivf:
		err = s.sidePhases(part(0.125))
	}
	log.end(id)
	if err != nil {
		return err
	}

	if err := s.replayAndProbe(log, root); err != nil {
		return err
	}
	log.end(root)

	self := log.selfTimes()
	rep.logf("span self time: replay loops %.1f ms", float64(self["pass:client"]+self["pass:handler"]+self["pass:handler-miss"]+self["pass:direct"])/1e6)
	path := filepath.Join(s.cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", s.def.name, s.cfg.seed))
	if err := log.write(path); err != nil {
		return err
	}
	rep.logf("%d spans written to %s", len(log.spans), path)
	return nil
}

// reportStages turns the change in the server's stage histograms over the
// traced window into per-stage means and the share of the client-observed
// median that the stages, summed per request, explain.
func (s *serving) reportStages(before, after map[string]float64, clientP50ms float64) {
	series := func(kind, stage string) float64 {
		name := fmt.Sprintf(`clapf_stage_duration_seconds_%s{stage=%q}`, kind, stage)
		return after[name] - before[name]
	}
	requests := series("count", "/recommend")
	var sum float64
	for _, st := range stageNames {
		if n := series("count", st); n > 0 {
			s.rep.set("serve.stage."+st+"_us", series("sum", st)/n*1e6)
		}
		sum += series("sum", st)
	}
	if requests > 0 && clientP50ms > 0 {
		perRequestMS := sum / requests * 1e3
		s.rep.set("reconcile.explained_share", perRequestMS/clientP50ms)
		s.rep.logf("reconcile: stages sum to %.4f ms per request, server total %.4f ms, client median %.4f ms",
			perRequestMS, series("sum", "/recommend")/requests*1e3, clientP50ms)
	}
}

// sidePhases are shard_exact_uniform's two extra request kinds, each a
// short closed loop: cold-start histories (fold-in, then the same dense
// scan) and batches of 32 known users (the blocked batch kernel).
func (s *serving) sidePhases(span time.Duration) error {
	rng := mathx.NewRNG(s.cfg.seed + 21)
	const historyLen, batchLen = 20, 32
	var cold []request
	for i := 0; i < 512; i++ {
		ids := make([]string, historyLen)
		for j := range ids {
			ids[j] = strconv.Itoa(rng.Intn(s.cat.numItems))
		}
		cold = append(cold, get("/recommend?items="+strings.Join(ids, ",")+"&k="+strconv.Itoa(topK)))
	}
	p := closedLoop("cold-start", s.readers, cold, span)
	s.rep.phase(&p)
	s.rep.set("serve.coldstart_p50_ms", p.p(0.5))

	var batches []request
	var batchUsers [][]int32
	for i := 0; i < 256; i++ {
		users := s.users.take(batchLen)
		parts := make([]string, len(users))
		for j, u := range users {
			parts[j] = fmt.Sprintf(`{"user":%d}`, u)
		}
		batches = append(batches, post("/recommend/batch", []byte(`{"requests":[`+strings.Join(parts, ",")+`]}`)))
		batchUsers = append(batchUsers, users)
	}
	p = closedLoop("batch", s.readers, batches, span)
	s.rep.phase(&p)
	s.rep.set("serve.batch_users_per_s", p.rate()*batchLen)

	// One batch answer is decoded and checked against the oracle.
	status, body, err := s.readers[0].do(batches[0].wire)
	var got struct {
		Results []struct {
			servedList
			Error string `json:"error"`
		} `json:"results"`
	}
	if err == nil && status == 200 {
		err = json.Unmarshal(body, &got)
	}
	s.rep.check(err == nil && status == 200 && len(got.Results) == batchLen, "batch answer: status %d, %d results, %v", status, len(got.Results), err)
	for j, res := range got.Results {
		u := batchUsers[0][j]
		s.rep.check(res.Error == "" && len(res.Items) == topK, "batch entry %d (user %d): %d items, error %q", j, u, len(res.Items), res.Error)
		if ref, ok := s.ref[u]; ok {
			err := matchExact(res.Items, ref)
			s.rep.check(err == nil, "batch entry for user %d: %v", u, err)
		}
	}
	return nil
}

// promotionPhase folds every shard's feedback log into its model and
// hot-swaps it (fenced swap, index rebuild) while reads continue at the
// fixed rate, then checks that each shard that took events moved to a new
// generation.
func (s *serving) promotionPhase(span time.Duration) error {
	type outcome struct {
		took []float64
		err  error
	}
	gens := make([]uint64, len(s.sys.shards))
	for i, sh := range s.sys.shards {
		gens[i] = sh.srv.Generation()
	}
	done := make(chan outcome)
	go func() {
		var o outcome
		for _, sh := range s.sys.shards {
			t0 := time.Now()
			if _, err := sh.prom.PromoteOnce(); err != nil {
				o.err = fmt.Errorf("promoting %s: %w", sh.name, err)
				break
			}
			o.took = append(o.took, time.Since(t0).Seconds())
		}
		done <- o
	}()
	reads := s.openReads(s.readClients(), span)
	reads.name = "promotion/reads"
	o := <-done
	if o.err != nil {
		return o.err
	}
	s.rep.phase(&reads)
	s.rep.set("feedback.promote_s", median(o.took))
	s.rep.set("feedback.promote_read_p95_ms", wholeWindow(&reads, 0.95))
	for i, sh := range s.sys.shards {
		if s.ackedOn[sh.name] > 0 {
			s.rep.check(sh.srv.Generation() == gens[i]+1, "%s took %d events but its generation went %d → %d",
				sh.name, s.ackedOn[sh.name], gens[i], sh.srv.Generation())
		}
	}
	return nil
}

// mergeExclude is the exclusion the server builds over a sorted id list:
// TopK visits items in increasing order, so one merge pointer answers
// every membership question.
func mergeExclude(pos []int32) func(int32) bool {
	idx := 0
	return func(i int32) bool {
		for idx < len(pos) && pos[idx] < i {
			idx++
		}
		return idx < len(pos) && pos[idx] == i
	}
}

// replayAndProbe replays a fixed sample of the workload's own request
// stream four ways — over the socket, into the handler with no socket,
// into the handler with the cache off, and as the direct public calls the
// server makes for a miss, in its order — then times each layer's public
// functions on their own. Every call is a span.
func (s *serving) replayAndProbe(log *spanLog, root int) error {
	rep, sz := s.rep, s.cfg.size
	sample := s.users.take(sz.replay)
	params := s.sys.shards[0].srv.BaseParams()

	// pass replays the sample once; one gets the span it runs under.
	pass := func(name string, one func(span, req int, u int32)) {
		id := log.start("pass:"+name, root, -1)
		for i, u := range sample {
			sid := log.start(name, id, i)
			one(sid, i, u)
			log.end(sid)
		}
		log.end(id)
	}
	pass("client", func(_, _ int, u int32) {
		r := get(recommendPath(u))
		ok := s.readers[0].run(&r)
		rep.check(ok, "replay of user %d over the socket failed", u)
	})
	if s.def.routed {
		// The same requests sent straight to the shard that owns each
		// user: the difference to the routed pass is the router hop.
		direct := make(map[*shard]*client)
		for _, sh := range s.sys.shards {
			c, err := dial(sh.plain.URL)
			if err != nil {
				return err
			}
			defer c.close()
			direct[sh] = c
		}
		pass("client-direct", func(_, _ int, u int32) {
			r := get(recommendPath(u))
			ok := direct[s.sys.owner(u)].run(&r)
			rep.check(ok, "replay of user %d straight to its shard failed", u)
		})
		rep.set("cluster.hop_overhead_us", log.p50US("client")-log.p50US("client-direct"))
	}
	inProcess := func(_, _ int, u int32) {
		rec := httptest.NewRecorder()
		s.sys.owner(u).handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, recommendPath(u), nil))
		rep.check(rec.Code == 200, "in-process replay of user %d: status %d", u, rec.Code)
	}
	pass("handler", inProcess)
	for _, sh := range s.sys.shards {
		sh.srv.SetCacheSize(0) // every request below is a miss
	}
	pass("handler-miss", inProcess)

	eng := score.NewEngine(params)
	var index *retrieval.Index
	if s.def.shard.ivf {
		id := log.start("retrieval.BuildIVF", root, -1)
		var err error
		index, err = retrieval.BuildIVF(params, retrieval.Config{})
		if err != nil {
			return err
		}
		rep.set("retrieval.build_s", log.end(id).Seconds())
	}
	var directUS []float64
	var candidates float64
	pass("direct", func(parent, req int, u int32) {
		var items []rank.Entry
		var total time.Duration
		pos := s.cat.train.Positives(u)
		if index != nil {
			uf := params.UserVector(u, nil)
			var cells []int32
			total += log.timeCall("retrieval.ProbeCells", parent, req, func() { cells = index.ProbeCells(uf, 0) })
			total += log.timeCall("retrieval.SearchCells", parent, req, func() { items, _ = index.SearchCells(uf, cells, topK, pos) })
			if req < 64 {
				candidates += float64(len(index.Probe(uf, 0))) / float64(s.cat.numItems) / 64
			}
		} else {
			var scores []float64
			var exclude func(int32) bool
			total += log.timeCall("score.ScoreAll", parent, req, func() {
				scores = make([]float64, s.cat.numItems)
				eng.ScoreAll(u, scores)
			})
			total += log.timeCall("merge", parent, req, func() { exclude = mergeExclude(pos) })
			total += log.timeCall("rank.TopKDropped", parent, req, func() { items, _ = rank.TopKDropped(scores, topK, exclude) })
		}
		total += log.timeCall("encode", parent, req, func() {
			out := make([]serve.Item, len(items))
			for j, e := range items {
				out[j] = serve.Item{Item: e.Item, Score: e.Score}
			}
			_, _ = json.Marshal(serve.RecommendResponse{User: &u, Items: out}) // cannot fail: plain numbers
		})
		directUS = append(directUS, float64(total)/1e3)
	})
	rep.set("serve.handler_us", log.p50US("handler"))
	rep.set("serve.http_overhead_us", log.p50US("client")-log.p50US("handler"))
	rep.set("serve.glue_us", log.p50US("handler-miss")-median(directUS))
	if index != nil {
		rep.set("retrieval.probe_us", log.p50US("retrieval.ProbeCells"))
		rep.set("retrieval.search_us", log.p50US("retrieval.SearchCells"))
		rep.set("retrieval.candidates_share", candidates)
	}
	rep.logf("replay of %d requests: client %.1f us, handler %.1f us, handler on a miss %.1f us, direct calls %.1f us",
		len(sample), log.p50US("client"), log.p50US("handler"), log.p50US("handler-miss"), median(directUS))

	s.probeKernels(log, root)
	if s.def.routed {
		return s.probeWritePath(log, root)
	}
	return nil
}

// probeKernels times the scoring and ranking kernels and fold-in on the
// run's own catalog, in float64 and float32, one call per span.
func (s *serving) probeKernels(log *spanLog, root int) {
	rep, n := s.rep, s.cfg.size.probeIters
	rng := mathx.NewRNG(s.cfg.seed + 31)
	f64 := score.NewEngine(s.cat.model)
	q32 := mf.QuantizeF32(s.cat.model)
	f32 := score.NewEngine(q32)
	scores := make([]float64, s.cat.numItems)
	const batch = 32
	rows := score.NewScoreRows(batch, s.cat.numItems)
	id := log.start("probe:kernels", root, -1)
	for i := 0; i < n; i++ {
		u := int32(rng.Intn(s.cat.numUsers))
		log.timeCall("score.ScoreAll/f64", id, -1, func() { f64.ScoreAll(u, scores) })
		log.timeCall("score.ScoreAll/f32", id, -1, func() { f32.ScoreAll(u, scores) })
		exclude := mergeExclude(s.cat.train.Positives(u))
		log.timeCall("rank.TopKDropped", id, -1, func() { rank.TopKDropped(scores, topK, exclude) })
		history := make([]int32, 20)
		for j := range history {
			history[j] = int32(rng.Intn(s.cat.numItems))
		}
		log.timeCall("mf.FoldInUser", id, -1, func() {
			_, _ = mf.FoldInUser(s.cat.model, history, 0.1) // ids are in range and reg > 0: cannot fail
		})
	}
	for i := 0; i < n/8+1; i++ {
		users := make([]int32, batch)
		for j := range users {
			users[j] = int32(rng.Intn(s.cat.numUsers))
		}
		log.timeCall("score.ScoreUsers/f64", id, -1, func() { f64.ScoreUsers(users, rows) })
		log.timeCall("score.ScoreUsers/f32", id, -1, func() { f32.ScoreUsers(users, rows) })
	}
	log.end(id)
	rep.set("score.scan_f64_us", log.p50US("score.ScoreAll/f64"))
	rep.set("score.scan_f32_us", log.p50US("score.ScoreAll/f32"))
	rep.set("score.batch_f64_us_per_user", log.p50US("score.ScoreUsers/f64")/batch)
	rep.set("score.batch_f32_us_per_user", log.p50US("score.ScoreUsers/f32")/batch)
	rep.set("rank.topk_us", log.p50US("rank.TopKDropped"))
	rep.set("mf.foldin_us", log.p50US("mf.FoldInUser"))

	// Bytes are computed from the served representation's shape, not
	// measured: one pass over the item factors and biases per scan.
	served := s.sys.shards[0].srv.BaseParams()
	scanUS := rep.values["score.scan_f64_us"]
	if served.ElemBytes() == 4 {
		scanUS = rep.values["score.scan_f32_us"]
	}
	if scanUS > 0 {
		bytes := float64(s.cat.numItems * (served.Dim() + 1) * served.ElemBytes())
		rep.set("score.scan_gb_per_s", bytes/(scanUS*1e-6)/1e9)
	}
	rep.set("mf.param_mb", float64(served.ParamBytes())/(1<<20))
	sh := s.sys.shards[0]
	if sh.mapped != nil {
		rep.set("store.save_v3_s", sh.saveTime.Seconds())
		rep.set("store.load_mapped_s", sh.loadTime.Seconds())
	} else {
		rep.set("store.save_v2_s", sh.saveTime.Seconds())
		rep.set("store.load_v2_s", sh.loadTime.Seconds())
	}
	rep.set("store.file_mb", fileMB(sh.modelPath))
	rep.logf("f32/f64 batch ratio: %.3f (f64 per-user time over f32 per-user time)",
		rep.values["score.batch_f64_us_per_user"]/rep.values["score.batch_f32_us_per_user"])
}

// probeWritePath times the layers under POST /feedback with direct calls:
// the ring lookup, a WAL append on a scratch log (one appender, fsync
// before return), and Ingestor.Ingest on a live shard (append, fold-in
// into the overlay, targeted cache invalidation). The ingested events are
// acknowledged writes like any other and are checked as such afterwards.
func (s *serving) probeWritePath(log *spanLog, root int) error {
	rep, n := s.rep, s.cfg.size.probeIters
	rng := mathx.NewRNG(s.cfg.seed + 41)
	id := log.start("probe:write-path", root, -1)
	defer log.end(id)

	t0 := time.Now()
	const lookups = 100000
	for i := 0; i < lookups; i++ {
		s.sys.ring.Lookup(cluster.UserKey(int32(i % s.cat.numUsers)))
	}
	rep.set("cluster.ring_lookup_ns", float64(time.Since(t0))/lookups)

	wal, _, err := feedback.OpenWAL(filepath.Join(s.cfg.tmp, "probe-wal"), feedback.WALConfig{SyncEvery: 1})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		u, it := int32(rng.Intn(s.cat.numUsers)), int32(rng.Intn(s.cat.numItems))
		log.timeCall("feedback.WAL.Append", id, -1, func() { _, err = wal.Append(u, it, time.Now()) })
		if err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	rep.set("feedback.wal_append_us", log.p50US("feedback.WAL.Append"))

	for i := 0; i < n; i++ {
		u, it := int32(rng.Intn(s.cat.numUsers)), int32(rng.Intn(s.cat.numItems))
		if s.cat.train.IsPositive(u, it) {
			continue
		}
		sh := s.sys.owner(u)
		log.timeCall("feedback.Ingestor.Ingest", id, -1, func() { _, _, err = sh.ing.Ingest(bgCtx, u, it) })
		if err != nil {
			return err
		}
		s.acked[u] = append(s.acked[u], it)
		s.ackedOn[sh.name]++
	}
	rep.set("feedback.ingest_us", log.p50US("feedback.Ingestor.Ingest"))
	var sum, count float64
	for _, sh := range s.sys.shards {
		sum += sh.fsync.Sum()
		count += float64(sh.fsync.Count())
	}
	if count > 0 {
		rep.set("feedback.fsync_us", sum/count*1e6)
	}
	return nil
}

// fileMB is the size of the file at path, 0 when it cannot be read.
func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / (1 << 20)
}
