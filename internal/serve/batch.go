package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"clapf/internal/obs/trace"
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
// sees the same model generation and retrieval mode, and each entry is
// answered as its GET would be: a known user through topKForUser's
// lookup, miss and fill, a history through topKColdStart, so every cache
// key carries the mode and a repeated user is a cache hit after its first
// entry. What a batch saves over sequential GETs is the transport: one
// request, one decode, one response. There is no shared sweep over the
// catalog: with the bound filter a miss's work is its own bound scan, and
// blocking 32 users into one sweep bought 1.1× before it was retired.
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

	// Each entry runs under its own "entry" span (note = entry index) so a
	// slow batch shows which member dragged it down; the entry's stages
	// nest inside.
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
				hit, _ := s.topKForUser(ectx, st, u, k)
				res.Items = hit.items
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
