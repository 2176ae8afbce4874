package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"clapf/internal/obs/trace"
	"clapf/internal/retrieval"
	"clapf/internal/score"
)

// maxBatchBody bounds the /recommend/batch request body. A full batch of
// MaxBatch entries, each with a MaxHistory-item history of multi-digit
// ids, fits comfortably; anything larger is hostile or misconfigured.
const maxBatchBody = 8 << 20

// BatchEntry is one recommendation request inside a batch: either a known
// user id or a cold-start history, plus an optional per-entry k (0 means
// the default of 10, values above MaxK are clamped, like the GET path).
type BatchEntry struct {
	User  *int32  `json:"user,omitempty"`
	Items []int32 `json:"items,omitempty"`
	K     int     `json:"k,omitempty"`
}

// BatchRequest is the /recommend/batch payload.
type BatchRequest struct {
	Requests []BatchEntry `json:"requests"`
}

// BatchResult is one entry's outcome. Exactly one of Items or Error is
// meaningful: a malformed entry reports its error in place so the rest of
// the batch still gets answers.
type BatchResult struct {
	User  *int32 `json:"user,omitempty"`
	Items []Item `json:"items,omitempty"`
	Error string `json:"error,omitempty"`
}

// BatchResponse is the /recommend/batch response; Results is parallel to
// the request's Requests.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// handleRecommendBatch serves many recommendations from one request. The
// whole batch runs against a single liveState snapshot, so every entry
// sees the same model generation — and the same retrieval mode, through
// the single path's own lookup, miss and fill, so under IVF a batch probes
// the index per entry instead of silently falling back to dense scoring,
// and every cache key carries the mode. The one thing a batch adds is in
// exact mode: the cache misses are collected and answered together by the
// engine's blocked sweep, which reads each tile of the item-factor matrix
// once for the whole batch instead of once per user (at 32 users over
// 26 744 items, half the time of a loop of single misses on float64 rows
// and two thirds on float32) and keeps one top-K selector per entry. The
// IVF path reads only the probed cells, so there is no shared sweep to
// batch.
func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var req BatchRequest
	sp := trace.StartSpanNoCtx(ctx, "decode")
	err := json.NewDecoder(r.Body).Decode(&req)
	sp.End()
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(ctx, w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("batch body exceeds %d bytes", tooLarge.Limit))
			return
		}
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("malformed batch request: %v", err))
		return
	}
	if len(req.Requests) == 0 {
		s.httpError(ctx, w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Requests) > s.MaxBatch {
		s.httpError(ctx, w, http.StatusBadRequest,
			fmt.Errorf("batch has %d entries, limit %d", len(req.Requests), s.MaxBatch))
		return
	}

	st := s.live.Load()
	results := make([]BatchResult, len(req.Requests))

	// Pass 1: validate every entry, answer cache hits, and collect the
	// known-user entries that still need scoring. Each entry runs under
	// its own "entry" span (note = entry index) so a slow batch shows
	// which member dragged it down; cold-start stages nest inside.
	type pendingKnown struct {
		idx  int
		key  cacheKey
		seen uint64 // the cache's invalidation count at the entry's lookup
	}
	var pending []pendingKnown
	for idx := range req.Requests {
		ectx, esp := trace.StartSpan(ctx, "entry")
		if esp.Active() {
			esp.SetNote(strconv.Itoa(idx))
		}
		func() {
			defer esp.End()
			e := req.Requests[idx]
			res := &results[idx]
			k, err := clampBatchK(e.K, s.MaxK)
			if err != nil {
				res.Error = err.Error()
				return
			}
			switch {
			case e.User != nil && len(e.Items) > 0:
				res.Error = "pass either user or items, not both"
			case e.User != nil:
				u := *e.User
				if u < 0 || int(u) >= st.params.NumUsers() {
					res.Error = fmt.Sprintf("invalid user %d", u)
					return
				}
				res.User = e.User
				if st.mode == retrieval.ModeIVF {
					// No sweep to share: the entry is a single request, its
					// stage spans nested under this entry. Repeated users in
					// one batch coalesce through the cache fill.
					hit, _ := s.topKForUser(ectx, st, u, k)
					res.Items = hit.items
					return
				}
				key := cacheKey{user: u, k: k, mode: st.mode}
				hit, seen, ok := s.lookup(ectx, st, key)
				if ok {
					res.Items = hit.items
					return
				}
				pending = append(pending, pendingKnown{idx: idx, key: key, seen: seen})
			case len(e.Items) > 0:
				history, err := dedupeIDs(e.Items, st.params.NumItems(), s.MaxHistory)
				if err != nil {
					res.Error = err.Error()
					return
				}
				items, err := s.topKColdStart(ectx, st, history, k)
				if err != nil {
					res.Error = err.Error()
					return
				}
				res.Items = items
			default:
				res.Error = "entry needs a user or a non-empty items history"
			}
		}()
	}

	// Pass 2 (exact mode only — IVF entries were fully answered in pass 1):
	// one blocked, parallel fused sweep over the cache misses, a selector
	// per entry. Entries for the same user are made adjacent so they share
	// one scan of each tile. The sweep serves many entries at once, so its
	// stages attach to the request root, not to any single entry span.
	if len(pending) > 0 {
		sp := trace.StartSpanNoCtx(ctx, "merge")
		slices.SortStableFunc(pending, func(a, b pendingKnown) int { return cmp.Compare(a.key.user, b.key.user) })
		queries := make([]score.TopKQuery, len(pending))
		for i, p := range pending {
			queries[i] = score.TopKQuery{User: p.key.user, K: p.key.k, ExcludeSorted: s.positivesFor(p.key.user)}
		}
		sp.End()
		sp = trace.StartSpanNoCtx(ctx, "score")
		ranked := st.eng.TopKUsers(queries)
		sp.End()
		sp = trace.StartSpanNoCtx(ctx, "cache")
		for i, p := range pending {
			items := s.countDropped(ranked[i].Entries, ranked[i].Dropped)
			s.fill(st, cacheEntry{key: p.key, items: items}, p.seen)
			results[p.idx].Items = items
		}
		sp.End()
	}

	s.writeJSON(ctx, w, http.StatusOK, BatchResponse{Results: results})
}

// clampBatchK normalizes a batch entry's k exactly like parseK does for
// the GET path: absent (0) means 10, above maxK clamps, negative is an
// error.
func clampBatchK(k, maxK int) (int, error) {
	if k == 0 {
		return 10, nil
	}
	if k < 0 {
		return 0, fmt.Errorf("invalid k %d", k)
	}
	if k > maxK {
		k = maxK
	}
	return k, nil
}
