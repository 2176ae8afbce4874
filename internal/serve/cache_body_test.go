package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"clapf/internal/dataset"
	"clapf/internal/mf"
	"clapf/internal/retrieval"
)

// eventSink is overlaySink with ingested histories, and a hook that runs
// inside ExtraPositives once the reader's snapshot is taken and before it
// is handed over — the window a concurrent /feedback can complete in.
type eventSink struct {
	overlaySink
	extra  map[int32][]int32
	onRead func(u int32)
}

func (k *eventSink) ExtraPositives(u int32) []int32 {
	snapshot := k.extra[u]
	if k.onRead != nil {
		k.onRead(u)
	}
	return snapshot
}

// ingest is what /feedback (u, item) does between the append and the ack:
// extend the exclusion set, then re-solve the row, which drops u's cached
// answers.
func (k *eventSink) ingest(t *testing.T, s *Server, train *dataset.Dataset, u, item int32) {
	t.Helper()
	k.Lock()
	defer k.Unlock()
	k.extra[u] = dataset.MergeSorted(k.extra[u], []int32{item})
	if err := s.UpdateUser(u, dataset.MergeSorted(train.Positives(u), k.extra[u])); err != nil {
		t.Errorf("UpdateUser: %v", err)
	}
}

func hasItem(items []Item, item int32) bool {
	return slices.ContainsFunc(items, func(it Item) bool { return it.Item == item })
}

// TestFillAfterInvalidateIsRefused: a read that took its exclusion list
// before a /feedback (u, i) completed and fills the cache after it has been
// acknowledged must not leave i in u's entry — "an ingested item stops being
// recommended back to its user the moment its append is acknowledged". The
// racing read may still answer with i (it began first); nothing after it may.
func TestFillAfterInvalidateIsRefused(t *testing.T) {
	racingRead := map[string]func(t *testing.T, h http.Handler) []Item{
		"single": func(t *testing.T, h http.Handler) []Item {
			_, resp := get(t, h, "/recommend?user=4&k=5")
			return resp.Items
		},
		"batch": func(t *testing.T, h http.Handler) []Item {
			_, resp := postBatch(t, h, BatchRequest{Requests: []BatchEntry{{User: i32(4), K: 5}}})
			return resp.Results[0].Items
		},
	}
	for name, read := range racingRead {
		t.Run(name, func(t *testing.T) {
			s, train := testServer(t)
			sink := &eventSink{extra: map[int32][]int32{}}
			if err := s.EnableFeedback(sink); err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			const u = 4
			_, first := get(t, h, "/recommend?user=4&k=1")
			item := first.Items[0].Item

			sink.onRead = func(int32) {
				sink.onRead = nil
				sink.ingest(t, s, train, u, item)
			}
			if raced := read(t, h); !hasItem(raced, item) {
				t.Fatalf("the racing read ranked under its own snapshot and should carry item %d: %+v", item, raced)
			}
			if sink.onRead != nil {
				t.Fatal("the racing read never asked for the user's extra positives")
			}
			for i := 0; i < 2; i++ { // a miss that fills, then its hit
				if _, resp := get(t, h, "/recommend?user=4&k=5"); hasItem(resp.Items, item) {
					t.Fatalf("read %d after the ack serves item %d back to user %d: %+v", i, item, u, resp.Items)
				}
			}
		})
	}
}

// freshBody is the reference for a cached body: the ranking computed past
// the cache, encoded by a new encoder.
func freshBody(t *testing.T, s *Server, u int32, k int) []byte {
	t.Helper()
	st := s.live.Load()
	items := s.miss(context.Background(), st, st.params.UserVector(u, nil), k, s.positivesFor(u))
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(RecommendResponse{User: &u, Items: items}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCachedBodyIsAFreshEncode: whatever replaced, emptied or half-filled
// the cache, the bytes a hit writes are the bytes a fresh encode of the
// current ranking gives — and the hit recorded no "encode" stage, since it
// encoded nothing.
func TestCachedBodyIsAFreshEncode(t *testing.T) {
	s, train := testServer(t)
	sink := &eventSink{extra: map[int32][]int32{}}
	if err := s.EnableFeedback(sink); err != nil {
		t.Fatal(err)
	}
	s.Tracer().SetSampleRate(1)
	h := s.Handler()
	const u, k = 7, 6
	const path = "/recommend?user=7&k=6"

	// check reads path twice: the first read after an event re-ranks (or, for
	// wantFirst "hit", finds an entry without a body), the second is a hit on
	// the body the first one stored.
	check := func(event, wantFirst string) {
		t.Helper()
		want := freshBody(t, s, u, k)
		for i, wantRead := range []string{wantFirst, "hit"} {
			hits, misses := s.cacheHits.Value(), s.cacheMisses.Value()
			rec, _ := get(t, h, path)
			gotRead := "miss"
			if s.cacheHits.Value() == hits+1 && s.cacheMisses.Value() == misses {
				gotRead = "hit"
			}
			if gotRead != wantRead {
				t.Errorf("after %s: read %d was a %s, want a %s", event, i, gotRead, wantRead)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("after %s: read %d (%s) wrote\n%s\nwant\n%s", event, i, gotRead, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("after %s: read %d Content-Type %q", event, i, ct)
			}
		}
		if e, _, ok := s.live.Load().cache.get(cacheKey{user: u, k: k, mode: s.Retrieval()}); !ok || !bytes.Equal(e.body, want) {
			t.Errorf("after %s: the entry's body is\n%s\nwant\n%s", event, e.body, want)
		}
		hit := s.Tracer().Snapshot().Traces[0] // newest first
		if hit.Name != "/recommend" {
			t.Fatalf("after %s: the newest trace is %q", event, hit.Name)
		}
		for _, sp := range hit.Spans {
			if sp.Stage == "encode" {
				t.Errorf("after %s: a hit on a stored body recorded an encode stage", event)
			}
		}
	}

	check("boot", "miss")

	_, top := get(t, h, path)
	sink.ingest(t, s, train, u, top.Items[0].Item)
	check("a feedback event", "miss")

	moved := s.Model().Clone()
	moved.ItemFactors(top.Items[1].Item)[0] += 0.25
	if err := s.Install(moved, InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	check("an install that moved an item row", "miss")
	if err := s.Install(moved.Clone(), InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	check("an install of the same item half", "miss")

	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 8}); err != nil {
		t.Fatal(err)
	}
	check("the flip to ivf", "miss")
	if err := s.SetRetrieval(retrieval.ModeExact, retrieval.Config{}); err != nil {
		t.Fatal(err)
	}
	check("the flip back to exact", "miss")

	s.SetCacheSize(16)
	check("SetCacheSize", "miss")

	if err := s.Install(mf.QuantizeF32(moved), InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	postBatch(t, h, BatchRequest{Requests: []BatchEntry{{User: i32(u), K: k}}})
	if e, _, ok := s.live.Load().cache.get(cacheKey{user: u, k: k, mode: s.Retrieval()}); !ok || e.body != nil {
		t.Fatalf("a batch fill should leave items and no body: ok=%v body=%s", ok, e.body)
	}
	check("a batch fill", "hit")
}

// TestCachedBodyConcurrentHitInvalidateFill (run under -race): one user's
// entry is read, invalidated and refilled — by single reads, which store a
// body, and by batches, which store none — from several goroutines at once.
// The model never moves, so every answer must be the one fresh encode.
func TestCachedBodyConcurrentHitInvalidateFill(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	const u, k = 9, 5
	want := freshBody(t, s, u, k)
	batch, err := json.Marshal(BatchRequest{Requests: []BatchEntry{{User: i32(u), K: k}}})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 300
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/recommend?user=9&k=5", nil))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("status %d, body\n%s\nwant\n%s", rec.Code, rec.Body.Bytes(), want)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/recommend/batch", bytes.NewReader(batch)))
			if rec.Code != http.StatusOK {
				t.Errorf("batch status %d: %s", rec.Code, rec.Body.Bytes())
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.live.Load().cache.invalidateUser(u)
		}
	}()
	wg.Wait()
}
