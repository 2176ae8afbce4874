package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clapf/internal/feedback"
	"clapf/internal/serve"
)

// newFeedbackCluster is newTestCluster plus a live ingest pipeline on
// every shard (temp-dir WAL, fold-in overlay), so the router's write
// path lands on real /feedback handlers.
func newFeedbackCluster(t testing.TB, n int, mut func(*Config)) (*Router, []*testShard, []*feedback.Ingestor) {
	t.Helper()
	r, shards, train := newTestCluster(t, n, mut)
	ings := make([]*feedback.Ingestor, n)
	for i, sh := range shards {
		wal, _, err := feedback.OpenWAL(t.TempDir(), feedback.WALConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wal.Close() })
		ing := feedback.NewIngestor(wal, train, feedback.Config{}, nil)
		ing.Bind(sh.srv)
		if err := sh.srv.EnableFeedback(ing); err != nil {
			t.Fatal(err)
		}
		ings[i] = ing
	}
	return r, shards, ings
}

func postFeedback(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/feedback", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

// The write path has strict affinity: the event lands on the user's home
// shard WAL and nowhere else, and the ack relays the shard's durable
// sequence number.
func TestRouterFeedbackOwnerAffinity(t *testing.T) {
	r, _, ings := newFeedbackCluster(t, 3, nil)
	h := r.Handler()
	u := userHomedOn(t, r, 1)
	rec := postFeedback(h, fmt.Sprintf(`{"user":%d,"item":3}`, u))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp serve.FeedbackResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.Status != "ok" {
		t.Fatalf("resp = %+v, want seq 1 status ok", resp)
	}
	for i, ing := range ings {
		want := uint64(0)
		if i == 1 {
			want = 1
		}
		if got := ing.WAL().LastSeq(); got != want {
			t.Errorf("shard %d WAL seq = %d, want %d", i, got, want)
		}
	}
}

// The router accepts single events only: the shard-side batch form must
// be rejected before routing, because a batch can span owners.
func TestRouterFeedbackRejectsBatches(t *testing.T) {
	r, _, _ := newFeedbackCluster(t, 2, nil)
	h := r.Handler()
	for _, body := range []string{
		`{"events":[{"user":1,"item":2}]}`,
		`{"user":1}`,
		`{"item":2}`,
		`{"user":-1,"item":2}`,
		`not json`,
	} {
		if rec := postFeedback(h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, rec.Code)
		}
	}
}

// Owner down: the event is buffered with a labeled 202 — never hedged to
// a replica — and the flusher delivers it once the owner heals. Buffer
// full: an honest 503.
func TestRouterFeedbackBufferedAckAndFlush(t *testing.T) {
	r, shards, ings := newFeedbackCluster(t, 3, func(c *Config) {
		c.Feedback.BufferSize = 2
	})
	h := r.Handler()
	u := userHomedOn(t, r, 0)
	shards[0].chaos.SetDown(true)

	for i := 0; i < 2; i++ {
		rec := postFeedback(h, fmt.Sprintf(`{"user":%d,"item":%d}`, u, 3+i))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("post %d: status = %d, want 202; body %s", i, rec.Code, rec.Body.String())
		}
		var resp struct {
			Status   string `json:"status"`
			Degraded string `json:"degraded"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != "buffered" || resp.Degraded != DegradedBuffered {
			t.Fatalf("post %d: resp = %+v, want buffered/buffered", i, resp)
		}
	}
	if got := r.FeedbackBuffered(); got != 2 {
		t.Fatalf("buffered = %d, want 2", got)
	}
	// Third event overflows the bounded buffer.
	if rec := postFeedback(h, fmt.Sprintf(`{"user":%d,"item":9}`, u)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, want 503", rec.Code)
	}
	// No event leaked to a replica while the owner was down.
	for i, ing := range ings {
		if seq := ing.WAL().LastSeq(); seq != 0 {
			t.Fatalf("shard %d WAL seq = %d while owner down, want 0", i, seq)
		}
	}

	shards[0].chaos.SetDown(false)
	// The breaker opened against the downed owner; run the flush until
	// its cooldown admits the half-open probe and both events drain.
	for i := 0; r.FeedbackBuffered() > 0 && i < 200; i++ {
		r.FlushFeedbackNow(context.Background())
		time.Sleep(5 * time.Millisecond)
	}
	if got := r.FeedbackBuffered(); got != 0 {
		t.Fatalf("buffered = %d after heal, want 0", got)
	}
	if seq := ings[0].WAL().LastSeq(); seq != 2 {
		t.Fatalf("owner WAL seq = %d after flush, want 2", seq)
	}
	st := r.RouterStats()
	if st.Degraded[DegradedBuffered] != 2 {
		t.Fatalf("degraded[buffered] = %d, want 2", st.Degraded[DegradedBuffered])
	}
}

// A shard-side 4xx is the owner's answer: relayed verbatim, never
// buffered, never retried.
func TestRouterFeedbackRelaysOwnerRejection(t *testing.T) {
	r, _, _ := newFeedbackCluster(t, 2, nil)
	h := r.Handler()
	// Item far out of range: the shard validates and answers 400.
	rec := postFeedback(h, `{"user":1,"item":1000000}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want shard's 400; body %s", rec.Code, rec.Body.String())
	}
	if got := r.FeedbackBuffered(); got != 0 {
		t.Fatalf("buffered = %d, want 0 (4xx is permanent)", got)
	}
}

// One owner that stays down must not hold up another that came back: the
// flusher keeps order per owner, not across them.
func TestFlushFeedbackDeadOwnerDoesNotBlockLiveOne(t *testing.T) {
	type owner struct {
		down atomic.Bool
		mu   sync.Mutex
		got  []string
	}
	owners := make([]*owner, 2)
	var cfg Config
	for i := range owners {
		o := new(owner)
		owners[i] = o
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if o.down.Load() {
				panic(http.ErrAbortHandler)
			}
			body, _ := io.ReadAll(req.Body)
			o.mu.Lock()
			o.got = append(o.got, string(body))
			o.mu.Unlock()
			fmt.Fprint(w, `{"status":"ok"}`)
		}))
		t.Cleanup(ts.Close)
		o.down.Store(true)
		cfg.Shards = append(cfg.Shards, ShardConfig{Name: fmt.Sprintf("shard-%d", i), URL: ts.URL})
	}
	cfg.Breaker = BreakerConfig{FailureThreshold: 100} // the breakers stay out of it
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	dead, live := userHomedOn(t, r, 0), userHomedOn(t, r, 1)
	var sent [2][]string
	for item := 3; item < 7; item++ { // dead, live, dead, live
		u, o := dead, 0
		if item%2 == 0 {
			u, o = live, 1
		}
		body := fmt.Sprintf(`{"user":%d,"item":%d}`, u, item)
		sent[o] = append(sent[o], body)
		if rec := postFeedback(h, body); rec.Code != http.StatusAccepted {
			t.Fatalf("post %s: status %d, want 202", body, rec.Code)
		}
	}
	owners[1].down.Store(false)
	if n := r.FlushFeedbackNow(context.Background()); n != 2 {
		t.Errorf("flush delivered %d events, want the live owner's 2", n)
	}
	owners[1].mu.Lock()
	if got := owners[1].got; !reflect.DeepEqual(got, sent[1]) {
		t.Errorf("live owner received %q, want %q", got, sent[1])
	}
	owners[1].mu.Unlock()
	var kept []string
	r.fbuf.mu.Lock()
	for _, ev := range r.fbuf.events {
		kept = append(kept, string(ev.body))
	}
	r.fbuf.mu.Unlock()
	if !reflect.DeepEqual(kept, sent[0]) {
		t.Errorf("buffer holds %q, want the dead owner's %q in order", kept, sent[0])
	}
}
