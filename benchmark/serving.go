package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"clapf/internal/feedback"
	"clapf/internal/mathx"
)

// servingDef freezes one serving workload. The rates are constants chosen
// once at 35–60 % of the closed-loop throughput measured on the reference
// box (README.md, "Fixed rates"); they never adapt at run time.
type servingDef struct {
	name      string
	shard     shardOpts
	routed    bool
	zipf      float64 // 0 = users drawn uniformly
	readRate  float64 // open-loop known-user /recommend per second
	writeRate float64 // open-loop POST /feedback per second; routed only
}

var servingDefs = []servingDef{
	{name: "shard_exact_uniform", shard: shardOpts{f32: true, cache: 256}, readRate: 1600},
	{name: "shard_ivf_zipf", shard: shardOpts{ivf: true, cache: 512}, zipf: 1.1, readRate: 12000},
	{name: "routed_rw", shard: shardOpts{ivf: true, cache: 512, feedback: true}, routed: true, zipf: 1.1, readRate: 3000, writeRate: 200},
}

// serving carries one serving run's state between its steps.
type serving struct {
	def     servingDef
	cfg     runConfig
	rep     *report
	cat     *catalog
	sys     *system
	ref     map[int32][]scored // oracle lists of the sample users
	readers []*client          // untraced front
	users   *userStream
	// acked holds, per user, the feedback items whose write was
	// acknowledged as durable, and ackedOn the count per owning shard.
	acked   map[int32][]int32
	ackedOn map[string]int
	writes  uint64  // write windows run so far; each gets its own event seed
	writer  *client // routed_rw's second connection
}

func runServing(def servingDef, cfg runConfig, rep *report) error {
	cat, err := buildCatalog(cfg.size, cfg.seed)
	if err != nil {
		return err
	}
	rep.set("datagen.generate_s", cat.genTime.Seconds())
	s := &serving{def: def, cfg: cfg, rep: rep, cat: cat,
		acked: make(map[int32][]int32), ackedOn: make(map[string]int)}
	if err := s.setup(); err != nil {
		return err
	}
	defer func() {
		for _, c := range s.readers {
			c.close()
		}
		if s.writer != nil {
			s.writer.close()
		}
		s.sys.stop()
	}()
	s.ref = newOracle(s.sys.shards[0].srv.BaseParams(), cat.train).topAll(cat.sample)
	for i := 0; i < numClients; i++ {
		c, err := dial(s.sys.front)
		if err != nil {
			return err
		}
		s.readers = append(s.readers, c)
	}
	s.users = newUserStream(cfg.seed+1, cat.numUsers, def.zipf)

	if err := s.verifySample(); err != nil {
		return err
	}
	warm := closedLoop("warm-up", s.readers, recommendRequests(s.users.take(1<<14)), cfg.size.warmup)
	rep.phase(&warm)

	if cfg.traced {
		err = s.tracedPhases()
	} else {
		err = s.timedPhases()
	}
	if err != nil {
		return err
	}
	if def.shard.feedback {
		if err := s.verifyFeedback(); err != nil {
			return err
		}
	}
	if cfg.traced {
		rep.set("loadgen.sent", float64(rep.attempted))
		rep.set("loadgen.ok", float64(rep.attempted-rep.failed))
		rep.set("loadgen.failed", float64(rep.failed))
		rep.set("failed_share", float64(rep.failed)/float64(rep.attempted))
	}
	rep.set("peak_rss_mb", peakRSSMB())
	return nil
}

// setup brings the system up size.setups times and keeps the last; the
// reported set-up time is the median. It covers what happens between "the
// inputs exist" and "the first request can be served": model file write,
// load and verify, index build, WAL open and replay, listeners, router.
// Input generation is reported on its own (datagen.generate_s).
func (s *serving) setup() error {
	opts := s.def.shard
	opts.traced = s.cfg.traced
	n := s.cfg.size.setups
	if s.def.routed && n > 2 {
		n = 2 // three shards and two index builds each: a third round would cost a tenth of the run
	}
	if s.cfg.traced {
		n = 1
	}
	var took []float64
	for i := 0; i < n; i++ {
		if s.sys != nil {
			s.sys.stop()
			s.sys = nil
		}
		// What the generator and the previous set-up left behind is garbage;
		// peak_rss_mb should not depend on when the collector notices.
		runtime.GC()
		dir := filepath.Join(s.cfg.tmp, "setup-"+strconv.Itoa(i))
		t0 := time.Now()
		var err error
		if s.def.routed {
			s.sys, err = startRouted(dir, s.cat, opts, s.cfg.seed+7)
		} else {
			s.sys, err = startSingle(dir, s.cat, opts)
		}
		if err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	s.rep.set("setup_s", median(took))
	s.rep.logf("set-up times (s): %.4f", took)
	return nil
}

// fetch asks the front door for u's list on c. An answer the router labels
// degraded (a hedge won by a replica, say) is the system working as
// designed under a slow primary, but it is not the answer the oracle
// checks are about — a replica does not hold the user's feedback — so it
// is asked again, a few times, before it is taken as it is.
func fetch(c *client, u int32) (servedList, error) {
	var out servedList
	for try := 0; try < 5; try++ {
		status, body, err := c.do(get(recommendPath(u)).wire)
		if err != nil {
			return out, err
		}
		if status != 200 {
			return out, fmt.Errorf("status %d: %s", status, body)
		}
		out = servedList{}
		if err := json.Unmarshal(body, &out); err != nil {
			return out, err
		}
		if out.User == nil || *out.User != u {
			return out, fmt.Errorf("answer is not for user %d", u)
		}
		if out.Degraded == "" {
			break
		}
	}
	return out, nil
}

// verifySample compares the served list of every sample user with the
// oracle. Exact shards must match item for item; IVF shards must never
// serve an excluded item, and their overlap with the oracle is
// recall_at_10. The result is the workload's quality metric.
func (s *serving) verifySample() error {
	var sum float64
	for _, u := range s.cat.sample {
		got, err := fetch(s.readers[0], u)
		s.rep.check(err == nil, "user %d: %v", u, err)
		if err != nil {
			continue
		}
		s.rep.check(got.Degraded == "", "user %d: degraded answer %q", u, got.Degraded)
		for _, it := range got.Items {
			s.rep.check(!s.cat.train.IsPositive(u, it.Item), "user %d: served training positive %d", u, it.Item)
		}
		if s.def.shard.ivf {
			sum += recallOf(got.Items, s.ref[u])
			continue
		}
		err = matchExact(got.Items, s.ref[u])
		s.rep.check(err == nil, "user %d: %v", u, err)
		if err == nil {
			sum++
		}
	}
	q := sum / float64(len(s.cat.sample))
	s.rep.set("quality", q)
	if s.def.shard.ivf {
		s.rep.set("recall_at_10", q)
	}
	s.rep.logf("oracle: %d sample users, quality %.4f", len(s.cat.sample), q)
	return nil
}

// fbEvent is one generated feedback write.
type fbEvent struct{ user, item int32 }

// feedbackEvents generates n writes: mostly a Zipf-drawn user with an item
// they have not seen, one in four aimed at an item the oracle says is in
// a sample user's current top list (so "an acknowledged item is never
// served again" is checked on items that were being served), and one in
// ten a repeat of an earlier event.
func (s *serving) feedbackEvents(n int, seed uint64) []fbEvent {
	rng := mathx.NewRNG(seed)
	users := newUserStream(seed+1, s.cat.numUsers, s.def.zipf)
	out := make([]fbEvent, 0, n)
	for len(out) < n {
		switch r := rng.Float64(); {
		case r < 0.10 && len(out) > 0:
			out = append(out, out[rng.Intn(len(out))])
		case r < 0.35:
			u := s.cat.sample[rng.Intn(len(s.cat.sample))]
			if top := s.ref[u]; len(top) > 0 {
				out = append(out, fbEvent{u, top[rng.Intn(len(top))].item})
			}
		default:
			u := users.next()
			i := int32(rng.Intn(s.cat.numItems))
			if !s.cat.train.IsPositive(u, i) {
				out = append(out, fbEvent{u, i})
			}
		}
	}
	return out
}

// durableAck accepts only a 200: the router's 202 "buffered" means the
// owner did not take the write.
func durableAck(status int, _ []byte) bool { return status == 200 }

func feedbackRequests(events []fbEvent) []request {
	reqs := make([]request, len(events))
	for i, ev := range events {
		reqs[i] = post("/feedback", []byte(fmt.Sprintf(`{"user":%d,"item":%d}`, ev.user, ev.item)))
		reqs[i].check = durableAck
	}
	return reqs
}

// noteAcks records which of a write phase's events were acknowledged.
func (s *serving) noteAcks(events []fbEvent, p *phaseResult) {
	for i, ev := range events {
		if !math.IsInf(p.ops[i].lat, 1) {
			s.acked[ev.user] = append(s.acked[ev.user], ev.item)
			s.ackedOn[s.sys.owner(ev.user).name]++
		}
	}
}

// readWrite runs one read window with, on routed_rw, the write stream
// beside it on its own connection, and returns both results.
func (s *serving) readWrite(span time.Duration, read func() phaseResult) (reads, writes phaseResult, err error) {
	if s.def.writeRate == 0 {
		return read(), phaseResult{}, nil
	}
	if s.writer == nil {
		if s.writer, err = dial(s.sys.front); err != nil {
			return reads, writes, err
		}
	}
	s.writes++
	events := s.feedbackEvents(int(s.def.writeRate*span.Seconds()), s.cfg.seed+100*s.writes)
	done := make(chan phaseResult)
	go func() {
		done <- openLoop("writes", []*client{s.writer}, feedbackRequests(events), s.def.writeRate)
	}()
	reads = read()
	writes = <-done
	s.noteAcks(events, &writes)
	return reads, writes, nil
}

// readClients is who sends reads: every client, or on routed_rw one,
// because the other connection carries the writes.
func (s *serving) readClients() []*client {
	if s.def.writeRate > 0 {
		return s.readers[:1]
	}
	return s.readers
}

func (s *serving) openReads(clients []*client, span time.Duration) phaseResult {
	n := int(s.def.readRate * span.Seconds())
	return openLoop("open/reads", clients, recommendRequests(s.users.take(n)), s.def.readRate)
}

// closedReads sends back to back for the span. Each call draws fresh users
// so that successive rounds do not replay one another's cache state.
func (s *serving) closedReads(span time.Duration) phaseResult {
	return closedLoop("closed/reads", s.readClients(), recommendRequests(s.users.take(1<<15)), span)
}

// rounds alternates an open-loop window (fixed rate, latency from each
// request's due time) with a closed-loop window (back to back, saturated
// throughput) n times, each window span long, and joins the windows of a
// kind into one phase. Alternating spreads every metric's slices over the
// whole run, so a neighbour's burst of a few seconds lands on some slices of
// each metric rather than on most slices of one. On routed_rw mixed is the
// open-loop reads and the writes beside them as one client population.
func (s *serving) rounds(n int, span time.Duration, front []*client) (open, closed, writes, mixed phaseResult, err error) {
	var opens, closeds, ws, mixes []phaseResult
	for r := 0; r < n; r++ {
		o, w1, err := s.readWrite(span, func() phaseResult { return s.openReads(front, span) })
		if err != nil {
			return open, closed, writes, mixed, err
		}
		c, w2, err := s.readWrite(span, func() phaseResult { return s.closedReads(span) })
		if err != nil {
			return open, closed, writes, mixed, err
		}
		opens, closeds = append(opens, o), append(closeds, c)
		if s.def.writeRate > 0 {
			ws = append(ws, w1, w2)
			// The two windows start within microseconds of each other, so
			// offsets into one are offsets into the other.
			mixes = append(mixes, phaseResult{span: o.span, ops: append(append([]timed(nil), o.ops...), w1.ops...)})
		}
	}
	open, closed, writes, mixed = join("open/reads", opens), join("closed/reads", closeds), join("writes", ws), join("open/mixed", mixes)
	s.rep.phase(&open)
	s.rep.phase(&closed)
	if s.def.writeRate > 0 {
		s.rep.phase(&writes)
	}
	return open, closed, writes, mixed, nil
}

// roundSeconds is how much of --seconds one open/closed round takes: two
// windows of 0.8 s. Windows of under a second catch the calm moments between
// a neighbour's bursts better than half as many of twice the length, so a
// longer run makes more rounds, not longer windows.
const roundSeconds = 1.6

// timedPhases is the end-to-end run: the timed seconds split evenly over
// open-loop and closed-loop windows, in alternating rounds.
func (s *serving) timedPhases() error {
	rounds := int(s.cfg.seconds/roundSeconds + 0.5)
	if rounds < 1 {
		rounds = 1
	}
	span := time.Duration(s.cfg.seconds * float64(time.Second) / float64(2*rounds))
	open, closed, writes, mixed, err := s.rounds(rounds, span, s.readClients())
	if err != nil {
		return err
	}
	s.reportReads(&open, &closed)
	ops := open
	if s.def.writeRate > 0 {
		// On routed_rw an operation is a read or a write: the two streams
		// are one client population. Writes are 1 in 16 operations and
		// slower than nearly every read, so the 95th percentile of the mix
		// sits in the body of the write acknowledgements and the median in
		// the body of the reads; neither path can get slower unseen.
		ops = mixed
		s.reportWrites(&writes)
	}
	s.rep.set("op_p50_ms", ops.p(0.5))
	s.rep.set("op_p95_ms", ops.p(0.95))
	s.rep.set("ops_per_s", closed.rate())
	return nil
}

func (s *serving) reportReads(open, closed *phaseResult) {
	s.rep.set("rec_p50_ms", open.p(0.5))
	s.rep.set("rec_p95_ms", open.p(0.95))
	s.rep.set("rec_p99_ms", wholeWindow(open, 0.99))
	s.rep.set("rec_rps", closed.rate())
	s.rep.set("loadgen.lateness_p99_ms", open.latenessP99())
	s.rep.logf("reads: open loop %.0f/s p50 %.4f ms p95 %.4f ms p99 %.4f ms (n=%d); closed loop %.0f/s; lateness p99 %.4f ms",
		s.def.readRate, open.p(0.5), open.p(0.95), wholeWindow(open, 0.99), open.sent, closed.rate(), open.latenessP99())
	if open.latenessP99() >= open.p(0.5) {
		s.rep.logf("INVALID: generator lateness p99 is not below the latency median")
	}
}

func (s *serving) reportWrites(w *phaseResult) {
	s.rep.set("fb_ack_p50_ms", w.p(0.5))
	s.rep.set("fb_ack_p95_ms", w.p(0.95))
	s.rep.logf("writes: open loop %.0f/s ack p50 %.4f ms p95 %.4f ms (n=%d)", s.def.writeRate, w.p(0.5), w.p(0.95), w.sent)
}

// wholeWindow is a percentile over the whole window, for percentiles a
// single slice cannot support.
func wholeWindow(p *phaseResult, q float64) float64 {
	all := latencies(p.ops)
	if !supported(len(all), q) {
		q = highestSupported(len(all))
	}
	return percentile(all, q)
}

// verifyFeedback checks the write path's promises once the load is over:
// every acknowledged (user, item) is absent from that user's next answer,
// and, after the shards are stopped, each shard's log replays exactly the
// events it acknowledged.
func (s *serving) verifyFeedback() error {
	users := make([]int32, 0, len(s.acked))
	for u := range s.acked {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
	for _, u := range users {
		got, err := fetch(s.readers[0], u)
		s.rep.check(err == nil, "user %d after feedback: %v", u, err)
		if err != nil {
			continue
		}
		s.rep.check(got.Degraded == "", "user %d after feedback: degraded answer %q", u, got.Degraded)
		gone := make(map[int32]bool, len(s.acked[u]))
		for _, it := range s.acked[u] {
			gone[it] = true
		}
		for _, it := range got.Items {
			s.rep.check(!gone[it.Item], "user %d: acknowledged item %d served again", u, it.Item)
		}
	}
	overlay := 0
	for _, sh := range s.sys.shards {
		overlay += sh.ing.Stats().OverlayUsers
	}
	s.rep.set("feedback.overlay_users", float64(overlay))

	s.sys.stop()
	var events int
	var took time.Duration
	for _, sh := range s.sys.shards {
		t0 := time.Now()
		wal, _, err := feedback.OpenWAL(filepath.Join(sh.dir, "wal"), feedback.WALConfig{})
		if err != nil {
			return fmt.Errorf("reopening %s's log: %w", sh.name, err)
		}
		n := 0
		err = wal.Replay(func(feedback.Event) error { n++; return nil })
		took += time.Since(t0)
		wal.Close()
		if err != nil {
			return fmt.Errorf("replaying %s's log: %w", sh.name, err)
		}
		s.rep.check(n == s.ackedOn[sh.name], "%s: log replays %d events, %d were acknowledged", sh.name, n, s.ackedOn[sh.name])
		events += n
	}
	if took > 0 {
		s.rep.set("feedback.replay_events_per_s", float64(events)/took.Seconds())
	}
	s.rep.logf("feedback: %d users with acknowledged writes checked; %d events replayed from %d logs", len(users), events, len(s.sys.shards))
	return nil
}
