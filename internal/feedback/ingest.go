package feedback

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/serve"
)

// Config parameterizes an Ingestor. Zero values select defaults.
type Config struct {
	// FoldInReg is the ridge strength for online fold-in solves; it must
	// match the server's FoldInReg or overlay rows and promotion exports
	// would disagree. Default 0.1.
	FoldInReg float64
	// MaxUserExtras bounds how many distinct ingested items a user's
	// exclusion/fold-in history can grow by — the bounded-growth guarantee
	// for hot users. Dedupe runs before the cap: duplicate events (already
	// in the extras or in the training history) never consume capacity.
	// Events beyond the cap are still WAL-durable and acknowledged, but
	// not applied. Default 1024. Negative disables the bound.
	MaxUserExtras int
}

func (c Config) withDefaults() Config {
	if c.FoldInReg == 0 {
		c.FoldInReg = 0.1
	}
	if c.MaxUserExtras == 0 {
		c.MaxUserExtras = 1024
	}
	return c
}

// Ingestor is the serve-side streaming-feedback pipeline: it appends
// events to the WAL (durably, before acknowledging), maintains each
// user's ingested-item extras (deduped, sorted, bounded), and applies
// bounded online factor updates through the server's fold-in overlay. It
// implements serve.FeedbackSink.
type Ingestor struct {
	cfg   Config
	wal   *WAL
	train *dataset.Dataset

	// mu is the lock serve.FeedbackSink exposes: Ingest's
	// append+record+apply step and the server's RebuildOverlay+publish
	// both run under it, so a model swap can never lose an event's online
	// update.
	mu      sync.Mutex
	extras  map[int32][]int32 // per-user ingested items, sorted, deduped
	lastSeq map[int32]uint64  // per-user highest applied event seq
	maxSeq  uint64            // highest seq recorded in extras
	folded  uint64            // promotion watermark: events <= folded are in the base

	srv *serve.Server // bound applier; nil until Bind

	// afterAppend, when set, runs right after an event's WAL append — the
	// chaos suite parks an ingest in exactly that spot.
	afterAppend func(seq uint64)

	appends    *obs.Counter
	replayed   *obs.Counter
	updates    *obs.Counter
	promotions *obs.CounterVec
	promMu     sync.Mutex
	promCounts map[string]uint64
}

// NewIngestor builds the pipeline over an opened WAL. Metrics are
// registered on reg (pass the server's Registry so they surface on its
// /metrics): clapf_feedback_appends_total, clapf_feedback_replayed_total,
// clapf_online_updates_total, clapf_promotions_total{outcome}; the WAL's
// fsync histogram (clapf_feedback_fsync_seconds) should be wired at
// OpenWAL time via WALConfig.FsyncSeconds.
func NewIngestor(wal *WAL, train *dataset.Dataset, cfg Config, reg *obs.Registry) *Ingestor {
	cfg = cfg.withDefaults()
	ing := &Ingestor{
		cfg:        cfg,
		wal:        wal,
		train:      train,
		extras:     make(map[int32][]int32),
		lastSeq:    make(map[int32]uint64),
		promCounts: make(map[string]uint64),
	}
	if reg != nil {
		ing.appends = reg.NewCounter("clapf_feedback_appends_total",
			"Feedback events durably appended to the WAL.")
		ing.replayed = reg.NewCounter("clapf_feedback_replayed_total",
			"Feedback events recovered from the WAL at startup.")
		ing.updates = reg.NewCounter("clapf_online_updates_total",
			"Online fold-in factor updates applied to the serving overlay.")
		ing.promotions = reg.NewCounterVec("clapf_promotions_total",
			"Feedback promotion attempts by outcome (ok, noop, fenced, error).", "outcome")
	}
	return ing
}

// Bind attaches the serving surface online updates apply to. Must be
// called before the first Ingest; kept separate from construction because
// the server's EnableFeedback needs the Ingestor first.
func (ing *Ingestor) Bind(srv *serve.Server) { ing.srv = srv }

// WAL exposes the underlying log (the promoter syncs and prunes it).
func (ing *Ingestor) WAL() *WAL { return ing.wal }

// Lock and Unlock expose the ingest/rebuild consistency lock to the
// server (see serve.FeedbackSink).
func (ing *Ingestor) Lock()   { ing.mu.Lock() }
func (ing *Ingestor) Unlock() { ing.mu.Unlock() }

// SetFolded seeds the promotion watermark from a loaded model file's
// FeedbackSeq before Replay. Not safe during concurrent ingest.
//
// The watermark is clamped to the log's recovered last sequence: a
// trailer claiming more events folded than the log has ever assigned
// means the model was exported against a *different* log (wrong
// -feedback-log directory, or a manually cleared one). Honoring the
// stale watermark would silently skip overlay rows and stall promotion
// until the fresh log's sequence numbers caught up; clamping restarts
// the watermark at the log's own chain. Returns the watermark actually
// installed so callers can log the mismatch.
func (ing *Ingestor) SetFolded(seq uint64) uint64 {
	if last := ing.wal.LastSeq(); seq > last {
		seq = last
	}
	ing.mu.Lock()
	ing.folded = seq
	ing.mu.Unlock()
	return seq
}

// Replay rebuilds the extras and per-user watermarks from every retained
// WAL event. Call once at startup, after SetFolded and before Bind'ing
// traffic: exclusion history is rebuilt from the whole log (an event
// already folded into the base model must still never be re-recommended),
// while the overlay rebuild that follows (serve.EnableFeedback →
// RebuildOverlay) re-solves only users with events beyond the watermark.
func (ing *Ingestor) Replay() (uint64, error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	var n uint64
	err := ing.wal.Replay(func(ev Event) error {
		ing.recordLocked(ev.User, ev.Item, ev.Seq)
		n++
		return nil
	})
	if err != nil {
		return n, err
	}
	if ing.replayed != nil {
		ing.replayed.Add(n)
	}
	return n, nil
}

// recordLocked folds one event into the extras under ing.mu. Returns
// whether the event extended the user's history (false: duplicate, or the
// user is at cap). Dedupe runs before the cap in every path — against the
// training history first, then the extras — so repeats never consume
// capacity (the PR-4 fold-in dedupe fix, applied to ingest).
func (ing *Ingestor) recordLocked(u, item int32, seq uint64) bool {
	if seq > ing.maxSeq {
		ing.maxSeq = seq
	}
	if ing.lastSeq[u] < seq {
		ing.lastSeq[u] = seq
	}
	if ing.train.IsPositive(u, item) {
		return false
	}
	row := ing.extras[u]
	pos := sort.Search(len(row), func(k int) bool { return row[k] >= item })
	if pos < len(row) && row[pos] == item {
		return false
	}
	if ing.cfg.MaxUserExtras > 0 && len(row) >= ing.cfg.MaxUserExtras {
		return false
	}
	row = append(row, 0)
	copy(row[pos+1:], row[pos:])
	row[pos] = item
	ing.extras[u] = row
	return true
}

// Ingest implements serve.FeedbackSink: append the event, record it and
// apply its online update under the consistency lock, then wait for the
// WAL fsync covering it. The acknowledgement (the return) happens only
// after that fsync — a crash after Ingest returns can never lose the
// event. The overlay update is visible before the ack; on a crash in that
// window the event simply vanishes with the process, unacknowledged.
//
// The append runs inside ing.mu, so events are recorded in the order
// their sequence numbers were assigned: every seq <= maxSeq is in the
// extras whenever a promotion snapshot reads maxSeq as its watermark.
// Begin does not fsync (bar sealing a full segment), so the sink lock is
// not held across a disk flush; the wait runs after the unlock.
func (ing *Ingestor) Ingest(ctx context.Context, user, item int32) (uint64, bool, error) {
	if ing.srv == nil {
		return 0, false, fmt.Errorf("feedback: ingestor not bound to a server")
	}
	ing.mu.Lock()
	p, err := ing.wal.Begin(user, item, time.Now())
	if err != nil {
		ing.mu.Unlock()
		return 0, false, err
	}
	if ing.afterAppend != nil {
		ing.afterAppend(p.Seq)
	}
	applied := ing.recordLocked(user, item, p.Seq)
	if applied {
		merged := dataset.MergeSorted(ing.train.Positives(user), ing.extras[user])
		if uerr := ing.srv.UpdateUser(user, merged); uerr != nil {
			// The event is recorded and will be durable; only the factor
			// update is refused (non-finite guard). The user keeps serving
			// base factors, with the ingested item excluded.
			applied = false
		} else if ing.updates != nil {
			ing.updates.Inc()
		}
	}
	ing.mu.Unlock()
	if err := p.Wait(); err != nil {
		return 0, false, err
	}
	if ing.appends != nil {
		ing.appends.Inc()
	}
	return p.Seq, applied, nil
}

// ExtraPositives implements serve.FeedbackSink: a snapshot of user u's
// ingested items, sorted ascending.
func (ing *Ingestor) ExtraPositives(u int32) []int32 {
	ing.mu.Lock()
	row := ing.extras[u]
	if len(row) == 0 {
		ing.mu.Unlock()
		return nil
	}
	out := make([]int32, len(row))
	copy(out, row)
	ing.mu.Unlock()
	return out
}

// RebuildOverlay implements serve.FeedbackSink: build the online-update
// overlay for a new base parameter set, re-solving fold-in factors for
// every user with events beyond the folded watermark. Users whose events
// are all at or below the watermark are already baked into base and score
// from it directly. Called by the server with the consistency lock held
// (see serve.FeedbackSink) — it must not lock ing.mu itself.
func (ing *Ingestor) RebuildOverlay(base mf.Params, folded uint64) (*mf.Overlay, error) {
	if folded != serve.KeepFoldedSeq {
		ing.folded = folded
	}
	ov := mf.NewOverlay(base)
	for u, last := range ing.lastSeq {
		if last <= ing.folded {
			continue
		}
		merged := dataset.MergeSorted(ing.train.Positives(u), ing.extras[u])
		if len(merged) == 0 {
			continue
		}
		if err := ov.FoldIn(u, merged, ing.cfg.FoldInReg); err != nil {
			return nil, fmt.Errorf("feedback: re-solving user %d: %w", u, err)
		}
	}
	return ov, nil
}

// snapshot returns the promotion view under the consistency lock: the
// high-water sequence number recorded in the extras and a copy of every
// user's merged (train + extras) history. Baking every user with extras —
// not only those below the watermark — is deliberate: fold-in is a pure
// function of the merged history, so over-baking is idempotent, and the
// watermark stays the conservative maxSeq recorded at snapshot time.
func (ing *Ingestor) snapshot() (seq uint64, users map[int32][]int32) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	users = make(map[int32][]int32, len(ing.extras))
	for u, row := range ing.extras {
		merged := dataset.MergeSorted(ing.train.Positives(u), row)
		cp := make([]int32, len(merged))
		copy(cp, merged)
		users[u] = cp
	}
	return ing.maxSeq, users
}

// Folded returns the current promotion watermark.
func (ing *Ingestor) Folded() uint64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.folded
}

func (ing *Ingestor) countPromotion(outcome string) {
	if ing.promotions != nil {
		ing.promotions.With(outcome).Inc()
	}
	ing.promMu.Lock()
	ing.promCounts[outcome]++
	ing.promMu.Unlock()
}

// Stats implements serve.FeedbackSink.
func (ing *Ingestor) Stats() serve.FeedbackStats {
	ing.mu.Lock()
	maxSeq, folded := ing.maxSeq, ing.folded
	overlayUsers := 0
	for _, last := range ing.lastSeq {
		if last > folded {
			overlayUsers++
		}
	}
	ing.mu.Unlock()
	st := serve.FeedbackStats{
		LastSeq:      maxSeq,
		FoldedSeq:    folded,
		OverlayUsers: overlayUsers,
		Segments:     ing.wal.Segments(),
	}
	if maxSeq > folded {
		st.Pending = maxSeq - folded
	}
	if ing.appends != nil {
		st.Appends = ing.appends.Value()
		st.Replayed = ing.replayed.Value()
		st.OnlineUpdates = ing.updates.Value()
	}
	ing.promMu.Lock()
	if len(ing.promCounts) > 0 {
		st.Promotions = make(map[string]uint64, len(ing.promCounts))
		for k, n := range ing.promCounts {
			st.Promotions[k] = n
		}
	}
	ing.promMu.Unlock()
	return st
}

var _ serve.FeedbackSink = (*Ingestor)(nil)
