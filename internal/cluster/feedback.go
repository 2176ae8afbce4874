package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"clapf/internal/obs/trace"
)

// DegradedBuffered labels a feedback acknowledgement that is NOT yet
// durable on the owning shard: the event sits in the router's in-memory
// buffer awaiting the flusher. It extends the degradation ladder for
// writes the way replica/stale_cache/poprank do for reads — the client is
// told exactly what it got (202, "buffered") and can choose to retry
// later if it needs the stronger guarantee.
const DegradedBuffered = "buffered"

// FeedbackConfig tunes the router's write path. Zero values take
// defaults (applied by NewRouter via withDefaults).
type FeedbackConfig struct {
	// BufferSize bounds the buffered-ack queue. When the owning shard is
	// down and the buffer is full, /feedback returns an honest 503 —
	// unbounded buffering would just convert a shard outage into a router
	// OOM. Default 4096; negative disables buffering entirely (shard down
	// means 503, no weaker rung).
	BufferSize int
	// FlushInterval is how often the background flusher retries buffered
	// events against their owners. Default 250ms.
	FlushInterval time.Duration
	// AttemptTimeout is the per-event deadline against the owning shard.
	// Writes get their own budget because a feedback append fsyncs on the
	// shard: it is slower than a read and must not inherit read-tuned
	// impatience. Default 5s.
	AttemptTimeout time.Duration
}

func (c FeedbackConfig) withDefaults() FeedbackConfig {
	if c.BufferSize == 0 {
		c.BufferSize = 4096
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 250 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 5 * time.Second
	}
	return c
}

// feedbackEvent is one buffered write: the already-validated body plus
// the ring key it routes by.
type feedbackEvent struct {
	key  uint64
	body []byte
}

// feedbackBuffer is the bounded FIFO behind buffered acks, plus the
// flusher's lifecycle. Guarded by mu; the flusher drains head-first and
// keeps each owner's events in order, so event order per user is preserved
// (one user's events share a ring key and therefore an owner).
type feedbackBuffer struct {
	mu     sync.Mutex
	events []feedbackEvent
	cap    int

	flushing bool
	stop     chan struct{}
	done     chan struct{}
}

func (b *feedbackBuffer) push(ev feedbackEvent) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) >= b.cap {
		return false
	}
	b.events = append(b.events, ev)
	return true
}

func (b *feedbackBuffer) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// feedbackRequest mirrors the shard's single-event payload. The router
// deliberately rejects the shard's batch form ("events"): a batch can
// span users and therefore shards, and tearing it into per-shard
// sub-batches would turn one client write into a multi-shard transaction
// the durability contract cannot honestly describe. One event, one
// owner, one ack.
type feedbackRequest struct {
	User *int32 `json:"user"`
	Item *int32 `json:"item"`
}

// maxFeedbackBody bounds the /feedback request body; a single event is
// tens of bytes.
const maxFeedbackBody = 4 << 10

// handleFeedback forwards one feedback event to the user's owning shard.
// Unlike the read path, the write path has strict affinity and no
// failover:
//
//   - Only the ring owner (preference position 0) is attempted — the
//     owner's WAL is the durability domain for that user's events;
//     appending to a replica would scatter one user's log across shards.
//   - Never hedged and never retried against another shard — a duplicate
//     append is a real duplicate event, not a free race win.
//   - When the owner is down (ejected, breaker open, attempt failed) the
//     event is buffered in the router and the client gets a labeled
//     202 {"status":"buffered","degraded":"buffered"}; the background
//     flusher delivers it when the owner returns. A full buffer is an
//     honest 503.
func (r *Router) handleFeedback(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, maxFeedbackBody)
	raw, err := io.ReadAll(req.Body)
	if err != nil {
		r.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: "feedback body too large"})
		return
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var fr feedbackRequest
	if err := dec.Decode(&fr); err != nil {
		r.writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("malformed feedback request (the router accepts single {user,item} events only): %v", err)})
		return
	}
	if fr.User == nil || fr.Item == nil {
		r.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "feedback needs both user and item"})
		return
	}
	if *fr.User < 0 || *fr.Item < 0 {
		r.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "user and item must be non-negative"})
		return
	}
	key := UserKey(*fr.User)
	res := r.tryFeedbackOwner(req.Context(), key, raw)
	if res.err == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
		return
	}
	r.bufferFeedback(w, key, raw)
}

// tryFeedbackOwner POSTs the event to the ring owner, breaker-gated,
// exactly once. err != nil means the owner did not durably accept it
// (ineligible, breaker open, transport failure, 5xx/429); a 4xx is the
// owner's answer and is relayed, not buffered — replaying a request the
// shard already rejected as malformed would loop forever.
func (r *Router) tryFeedbackOwner(ctx context.Context, key uint64, body []byte) attemptResult {
	fc := r.cfg.Feedback.withDefaults()
	sh := r.shards[r.ring.Lookup(key)[0]]
	now := time.Now()
	if !sh.eligible(now) {
		return attemptResult{shard: sh, err: fmt.Errorf("cluster: owner %s unavailable", sh.name)}
	}
	if !sh.breaker.Allow() {
		return attemptResult{shard: sh, err: fmt.Errorf("cluster: owner %s breaker open", sh.name)}
	}
	sp := trace.StartSpanNoCtx(ctx, sh.span)
	defer sp.End()
	// A torn response to a write is the ambiguous case: the shard may or may
	// not have appended. It settles like any owner failure — the flusher
	// redelivers and the shard's ingest dedupe (same user+item never grows
	// history twice) absorbs the repeat.
	ans, err := sh.conns.exchange(ctx, fc.AttemptTimeout, http.MethodPost, "/feedback", "application/json", body)
	return r.settle(ctx, sh, ans, err)
}

// bufferFeedback is the write path's single degradation rung: enqueue
// and label, or refuse.
func (r *Router) bufferFeedback(w http.ResponseWriter, key uint64, body []byte) {
	if r.fbuf == nil || !r.fbuf.push(feedbackEvent{key: key, body: body}) {
		r.unavailable.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(1+r.rng.Intn(3)))
		r.writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "owning shard unavailable and feedback buffer full"})
		return
	}
	r.degraded.With(DegradedBuffered).Inc()
	r.feedbackBuffered.Inc()
	r.writeJSON(w, http.StatusAccepted, struct {
		Status   string `json:"status"`
		Degraded string `json:"degraded"`
	}{Status: "buffered", Degraded: DegradedBuffered})
}

// StartFeedbackFlusher launches the background loop that redelivers
// buffered feedback to owning shards, returning a stop function.
// Idempotent like StartProber. No-op (immediately stopped) when
// buffering is disabled.
func (r *Router) StartFeedbackFlusher() (stop func()) {
	if r.fbuf == nil {
		return func() {}
	}
	r.fbuf.mu.Lock()
	if r.fbuf.flushing {
		r.fbuf.mu.Unlock()
		return func() {}
	}
	r.fbuf.flushing = true
	r.fbuf.stop = make(chan struct{})
	r.fbuf.done = make(chan struct{})
	stopCh, doneCh := r.fbuf.stop, r.fbuf.done
	r.fbuf.mu.Unlock()
	fc := r.cfg.Feedback.withDefaults()
	go func() {
		defer close(doneCh)
		t := time.NewTicker(fc.FlushInterval)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				r.FlushFeedbackNow(context.Background())
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

// FlushFeedbackNow synchronously attempts every buffered event against
// its owner, in arrival order, and reports how many were delivered. Once
// an owner refuses an event, that event and every later one for the same
// owner go back to the buffer in order (one user's events share an owner,
// so per-user sequencing survives a partial flush) while other owners'
// events are still attempted: a shard that stays down does not hold up
// one that came back. Events the owner rejects with a 4xx are dropped
// (they will never succeed) with a log line. Exported so tests and drains
// can force a flush without waiting for the ticker.
func (r *Router) FlushFeedbackNow(ctx context.Context) (delivered int) {
	if r.fbuf == nil {
		return 0
	}
	r.fbuf.mu.Lock()
	pending := r.fbuf.events
	r.fbuf.events = nil
	r.fbuf.mu.Unlock()
	if len(pending) == 0 {
		return 0
	}
	var requeue []feedbackEvent
	refused := make([]bool, len(r.shards)) // by owner, this flush
	for _, ev := range pending {
		owner := r.ring.Lookup(ev.key)[0]
		if !refused[owner] {
			res := r.tryFeedbackOwner(ctx, ev.key, ev.body)
			if res.err == nil {
				if res.status < 400 {
					delivered++
					r.feedbackFlushed.Inc()
				} else {
					// Owner answered 4xx: permanent, drop rather than loop.
					r.log.Warn("dropping buffered feedback rejected by owner",
						"shard", res.shard.name, "status", res.status)
				}
				continue
			}
			refused[owner] = true
		}
		requeue = append(requeue, ev)
	}
	if len(requeue) > 0 {
		r.fbuf.mu.Lock()
		// New arrivals landed behind the batch we took; requeued events
		// precede them chronologically.
		r.fbuf.events = append(requeue, r.fbuf.events...)
		over := len(r.fbuf.events) - r.fbuf.cap
		r.fbuf.mu.Unlock()
		if over > 0 {
			r.log.Warn("feedback buffer over capacity after requeue", "over", over)
		}
	}
	return delivered
}

// FeedbackBuffered returns the current buffered-event count (tests,
// /healthz).
func (r *Router) FeedbackBuffered() int {
	if r.fbuf == nil {
		return 0
	}
	return r.fbuf.size()
}
