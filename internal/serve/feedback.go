package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"clapf/internal/mf"
	"clapf/internal/obs/trace"
)

// FeedbackStats is the streaming-ingest pipeline's state, surfaced in
// /healthz. The sink implementation (internal/feedback.Ingestor) fills it.
type FeedbackStats struct {
	// Appends is how many events have been durably appended to the WAL.
	Appends uint64 `json:"appends"`
	// Replayed counts events recovered from the WAL at startup.
	Replayed uint64 `json:"replayed"`
	// OnlineUpdates counts fold-in factor updates applied to the overlay.
	OnlineUpdates uint64 `json:"online_updates"`
	// LastSeq and FoldedSeq are the WAL head and the promotion watermark;
	// their difference (Pending) is the log's unfolded backlog.
	LastSeq   uint64 `json:"last_seq"`
	FoldedSeq uint64 `json:"folded_seq"`
	Pending   uint64 `json:"pending"`
	// OverlayUsers is how many users currently score through an
	// online-updated factor row.
	OverlayUsers int `json:"overlay_users"`
	// Segments is the number of live WAL segment files.
	Segments int `json:"wal_segments"`
	// Promotions counts completed promotion attempts by outcome.
	Promotions map[string]uint64 `json:"promotions,omitempty"`
}

// FeedbackSink is the ingest pipeline the server hands /feedback events
// to; internal/feedback.Ingestor is the implementation. The server never
// imports the feedback package — the sink is injected (EnableFeedback) by
// cmd/clapf-serve — so the dependency points one way.
//
// The sync.Locker is the consistency contract between ingest and model
// swaps: Ingest holds the lock while recording an event and applying its
// online update, and install holds it across RebuildOverlay and the
// liveState publish. That ordering guarantees every event is either in
// the overlay being built or applied to the published state — a swap can
// never lose an acknowledged event's update. RebuildOverlay is always
// called with the lock already held.
type FeedbackSink interface {
	sync.Locker
	// Ingest durably records one event and applies its online update.
	// seq is the WAL sequence number; applied reports whether the event
	// extended the user's history (false for duplicates and for users at
	// their history cap — the event is still durable and acknowledged).
	Ingest(ctx context.Context, user, item int32) (seq uint64, applied bool, err error)
	// ExtraPositives returns the sorted ingested-item history for u
	// (nil for users with none). The result must be safe to read after
	// the call — a snapshot or an immutable slice.
	ExtraPositives(u int32) []int32
	// RebuildOverlay builds the online-update overlay for a new base
	// parameter set. folded is the WAL watermark base incorporates;
	// KeepFoldedSeq keeps the sink's current watermark. Only events
	// beyond the watermark are re-solved into the overlay.
	RebuildOverlay(base mf.Params, folded uint64) (*mf.Overlay, error)
	// Stats reports pipeline state for /healthz.
	Stats() FeedbackStats
}

// EnableFeedback attaches the streaming-ingest sink and rewraps the live
// state so online updates have an overlay to land in. Mounts POST
// /feedback on the next Handler() build. Call once, at startup, after the
// sink has replayed its WAL; the sink's RebuildOverlay is invoked
// immediately (with its current watermark) to fold any replayed backlog
// into the serving state. Does not bump the model generation — the base
// parameters are unchanged.
func (s *Server) EnableFeedback(sink FeedbackSink) error {
	if sink == nil {
		return fmt.Errorf("serve: nil feedback sink")
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.feedback.Load() != nil {
		return fmt.Errorf("serve: feedback already enabled")
	}
	// Register the counter before the sink is published: the atomic store
	// below is what makes the sink visible to request goroutines, so
	// everything they may read through it must be written first.
	if s.onlineRejected == nil {
		s.onlineRejected = s.reg.NewCounter("clapf_online_update_rejected_total",
			"Online fold-in updates refused by the non-finite guard; the user keeps serving base factors.")
	}
	s.feedback.Store(&sink)
	if err := s.install(s.live.Load().base, KeepFoldedSeq); err != nil {
		s.feedback.Store(nil)
		return err
	}
	return nil
}

// feedbackSink returns the attached streaming-ingest sink, nil before
// EnableFeedback. Lock-free readers on request goroutines go through
// this — never through the field directly.
func (s *Server) feedbackSink() FeedbackSink {
	if p := s.feedback.Load(); p != nil {
		return *p
	}
	return nil
}

// UpdateUser re-solves user u's factors over history (training positives
// merged with ingested extras, sorted) against the live base parameters
// and installs the result in the online-update overlay at the base's
// precision (mf.Overlay.FoldIn). u's cached top-K entries are dropped
// whether or not the row is accepted: the event already extended u's
// exclusion set, so a cached ranking may carry the just-ingested item
// even when the non-finite guard refuses the factor update and u keeps
// serving base factors. Callers (the ingest path) hold the sink lock,
// which serializes this against overlay rebuilds — see FeedbackSink.
func (s *Server) UpdateUser(u int32, history []int32) error {
	st := s.live.Load()
	if st.overlay == nil {
		return fmt.Errorf("serve: feedback not enabled")
	}
	err := st.overlay.FoldIn(u, history, s.FoldInReg)
	if errors.Is(err, mf.ErrNonFiniteRow) {
		s.onlineRejected.Inc()
	}
	st.cache.invalidateUser(u)
	return err
}

// feedbackRequest is the POST /feedback body: one event, or a batch under
// "events". A single-event body and a one-element batch are equivalent.
type feedbackRequest struct {
	User   *int32          `json:"user,omitempty"`
	Item   *int32          `json:"item,omitempty"`
	Events []feedbackEvent `json:"events,omitempty"`
}

type feedbackEvent struct {
	User int32 `json:"user"`
	Item int32 `json:"item"`
}

// FeedbackResponse is the POST /feedback payload. Seq is the WAL sequence
// number of the last event — by the time the response is written, every
// event in the request is fsync-durable.
type FeedbackResponse struct {
	Status  string `json:"status"`
	Seq     uint64 `json:"seq"`
	Events  int    `json:"events"`
	Applied int    `json:"applied"`
}

// maxFeedbackBody bounds the request body; at ~20 bytes per event this
// comfortably fits the MaxBatch-bounded event count.
const maxFeedbackBody = 1 << 20

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	sink := s.feedbackSink()
	if sink == nil {
		s.httpError(ctx, w, http.StatusNotFound, fmt.Errorf("feedback ingest not enabled (start with -feedback-log)"))
		return
	}
	var req feedbackRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFeedbackBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("invalid body: %w", err))
		return
	}
	events := req.Events
	if req.User != nil || req.Item != nil {
		if len(events) > 0 {
			s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("pass either user/item or events, not both"))
			return
		}
		if req.User == nil || req.Item == nil {
			s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("both user and item are required"))
			return
		}
		events = []feedbackEvent{{User: *req.User, Item: *req.Item}}
	}
	if len(events) == 0 {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("no events"))
		return
	}
	if s.MaxBatch > 0 && len(events) > s.MaxBatch {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("%d events exceed the batch limit %d", len(events), s.MaxBatch))
		return
	}
	st := s.live.Load()
	for _, ev := range events {
		if ev.User < 0 || int(ev.User) >= st.params.NumUsers() {
			s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("user %d out of range [0,%d)", ev.User, st.params.NumUsers()))
			return
		}
		if ev.Item < 0 || int(ev.Item) >= st.params.NumItems() {
			s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("item %d out of range [0,%d)", ev.Item, st.params.NumItems()))
			return
		}
	}
	sp := trace.StartSpanNoCtx(ctx, "ingest")
	var lastSeq uint64
	applied := 0
	for _, ev := range events {
		seq, ok, err := sink.Ingest(ctx, ev.User, ev.Item)
		if err != nil {
			sp.End()
			// Durability could not be confirmed: the client must not treat
			// the event as recorded.
			s.httpError(ctx, w, http.StatusServiceUnavailable, fmt.Errorf("ingest failed: %w", err))
			return
		}
		lastSeq = seq
		if ok {
			applied++
		}
	}
	sp.End()
	s.writeJSON(ctx, w, http.StatusOK, FeedbackResponse{
		Status:  "ok",
		Seq:     lastSeq,
		Events:  len(events),
		Applied: applied,
	})
}
