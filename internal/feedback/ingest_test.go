package feedback

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"clapf/internal/serve"
	"clapf/internal/store"
)

// bootCapped is boot with a tiny MaxUserExtras so the cap is reachable.
func bootCapped(t *testing.T, cap int) *pipeline {
	t.Helper()
	model, train := chaosFixture(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.clapf")
	if err := store.SaveFile(modelPath, model); err != nil {
		t.Fatal(err)
	}
	srvModel, _, err := store.LoadFileWithMeta(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(srvModel, train)
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := OpenWAL(filepath.Join(dir, "wal"), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	ing := NewIngestor(wal, train, Config{MaxUserExtras: cap}, nil)
	ing.Bind(srv)
	if err := srv.EnableFeedback(ing); err != nil {
		t.Fatal(err)
	}
	return &pipeline{srv: srv, ing: ing, wal: wal}
}

// freshItems returns n items user u has NOT interacted with in training.
func freshItems(t *testing.T, p *pipeline, u int32, n int) []int32 {
	t.Helper()
	var out []int32
	for i := int32(0); i < int32(p.ing.train.NumItems()) && len(out) < n; i++ {
		if !p.ing.train.IsPositive(u, i) {
			out = append(out, i)
		}
	}
	if len(out) < n {
		t.Fatalf("user %d has fewer than %d fresh items", u, n)
	}
	return out
}

// Dedupe runs before the cap — the PR-4 fold-in fix applied to ingest:
// repeated events and training-known items never consume MaxUserExtras
// capacity, so a hot user's history is bounded by distinct new items,
// not by event volume.
func TestIngestDedupeBeforeCap(t *testing.T) {
	p := bootCapped(t, 3)
	ctx := context.Background()
	const u = int32(2)
	items := freshItems(t, p, u, 4)
	trainItem := p.ing.train.Positives(u)[0]

	// Ten duplicate events of the same fresh item: one slot consumed.
	for i := 0; i < 10; i++ {
		if _, _, err := p.ing.Ingest(ctx, u, items[0]); err != nil {
			t.Fatal(err)
		}
	}
	// Ten events of a training positive: zero slots consumed.
	for i := 0; i < 10; i++ {
		seq, applied, err := p.ing.Ingest(ctx, u, trainItem)
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			t.Fatalf("seq %d: training-known item consumed capacity", seq)
		}
	}
	if got := p.ing.ExtraPositives(u); len(got) != 1 || got[0] != items[0] {
		t.Fatalf("extras = %v, want [%d]", got, items[0])
	}
	// Two more distinct items fit under the cap of 3...
	for _, it := range items[1:3] {
		if _, applied, err := p.ing.Ingest(ctx, u, it); err != nil || !applied {
			t.Fatalf("item %d: applied=%v err=%v, want applied", it, applied, err)
		}
	}
	// ...the fourth distinct item hits the cap: still durably acked
	// (seq advances), but not applied.
	seqBefore := p.wal.LastSeq()
	seq, applied, err := p.ing.Ingest(ctx, u, items[3])
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("event beyond MaxUserExtras was applied")
	}
	if seq != seqBefore+1 {
		t.Fatalf("capped event seq = %d, want %d (still durable)", seq, seqBefore+1)
	}
	got := p.ing.ExtraPositives(u)
	if len(got) != 3 {
		t.Fatalf("extras = %v, want exactly 3 (bounded growth)", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("extras not sorted/deduped: %v", got)
		}
	}
	// Re-sending an item already in extras while at cap is still a
	// dedupe hit, not a cap rejection for a *new* slot.
	if _, applied, err := p.ing.Ingest(ctx, u, items[1]); err != nil || applied {
		t.Fatalf("duplicate at cap: applied=%v err=%v, want no-op", applied, err)
	}
}

// A model trailer claiming more folded events than the log ever
// assigned means the model was exported against a different log; the
// watermark clamps to the log's own chain so fresh events still get
// overlay rows and promotion is not stalled.
func TestSetFoldedClampsToLogChain(t *testing.T) {
	p := bootCapped(t, 0)
	if got := p.ing.SetFolded(5); got != 0 {
		t.Fatalf("SetFolded(5) on empty log installed %d, want 0", got)
	}
	if _, applied, err := p.ing.Ingest(context.Background(), 1, freshItems(t, p, 1, 1)[0]); err != nil || !applied {
		t.Fatalf("post-clamp ingest: applied=%v err=%v, want applied", applied, err)
	}
	st := p.ing.Stats()
	if st.FoldedSeq != 0 || st.Pending != 1 || st.OverlayUsers != 1 {
		t.Fatalf("post-clamp stats = %+v, want folded 0, pending 1, overlay 1", st)
	}
	// A watermark the log can cover installs unclamped.
	if got := p.ing.SetFolded(1); got != 1 {
		t.Fatalf("SetFolded(1) with last_seq 1 installed %d, want 1", got)
	}
}

// End to end over HTTP: an ingested event excludes its item from the
// user's recommendations immediately (cache invalidated, exclusion set
// extended), and /healthz reports the pipeline.
func TestFeedbackHTTPIngestExcludesItem(t *testing.T) {
	p := bootCapped(t, 0) // 0 = default cap
	h := p.srv.Handler()
	const u = int32(1)

	topK := func() []int32 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/recommend?user=%d&k=10", u), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("recommend = %d: %s", rec.Code, rec.Body.String())
		}
		var body struct {
			Items []struct {
				Item int32 `json:"item"`
			} `json:"items"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		out := make([]int32, len(body.Items))
		for i, it := range body.Items {
			out[i] = it.Item
		}
		return out
	}

	before := topK()
	target := before[0]
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/feedback",
		strings.NewReader(fmt.Sprintf(`{"user":%d,"item":%d}`, u, target)))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("feedback = %d: %s", rec.Code, rec.Body.String())
	}
	var fr serve.FeedbackResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Seq != 1 || fr.Applied != 1 {
		t.Fatalf("feedback response = %+v, want seq 1 applied 1", fr)
	}
	for _, it := range topK() {
		if it == target {
			t.Fatalf("item %d still recommended after being ingested", target)
		}
	}

	// /healthz surfaces the pipeline counters.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health struct {
		Feedback *serve.FeedbackStats `json:"feedback"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Feedback == nil {
		t.Fatal("healthz has no feedback block")
	}
	if health.Feedback.LastSeq != 1 || health.Feedback.Pending != 1 || health.Feedback.OverlayUsers != 1 {
		t.Fatalf("healthz feedback = %+v", *health.Feedback)
	}
}

// The pipeline's counters land on the server's /metrics exposition when
// the ingestor is registered against the server registry, as
// cmd/clapf-serve wires it.
func TestFeedbackMetricsExposition(t *testing.T) {
	model, train := chaosFixture(t)
	dir := t.TempDir()
	srv, err := serve.New(model, train)
	if err != nil {
		t.Fatal(err)
	}
	fsync := srv.Registry().NewHistogram("clapf_feedback_fsync_seconds",
		"Feedback WAL fsync latency.", []float64{0.001, 0.01, 0.1})
	wal, _, err := OpenWAL(filepath.Join(dir, "wal"), WALConfig{FsyncSeconds: fsync})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	ing := NewIngestor(wal, train, Config{}, srv.Registry())
	ing.Bind(srv)
	if err := srv.EnableFeedback(ing); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ing.Ingest(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	prom, err := NewPromoter(ing, srv, PromoteConfig{ModelPath: filepath.Join(dir, "m.clapf")})
	if err != nil {
		t.Fatal(err)
	}
	if outcome, err := prom.PromoteOnce(); err != nil || outcome != PromoteOK {
		t.Fatalf("promotion = %q, %v", outcome, err)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{
		"clapf_feedback_appends_total 1",
		"clapf_feedback_fsync_seconds_count",
		"clapf_feedback_replayed_total 0",
		"clapf_online_updates_total 1",
		`clapf_promotions_total{outcome="ok"} 1`,
		"clapf_online_update_rejected_total 0",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

// Overlay rows live at the base's precision, and the non-finite guard
// runs after the rounding: a fold-in solve that is finite in float64 but
// overflows float32 is refused on a float32 base — the event stays
// durable and excluded, the user keeps base factors — where the same
// solve on the float64 base is applied.
func TestIngestRefusesFloat32OverflowRow(t *testing.T) {
	model, train := chaosFixture(t)
	const u, item = int32(3), int32(0)
	if train.IsPositive(u, item) {
		t.Fatalf("fixture: item %d is already a training positive of user %d", item, u)
	}
	// An item whose bias sits at the edge of float32 range drives the
	// ridge solve's right-hand side (1 - b_i)·V_i past it.
	for j := range model.ItemFactors(item) {
		model.ItemFactors(item)[j] = 0
	}
	model.ItemFactors(item)[0] = 0.3
	model.AddBias(item, -3.3e38-model.Bias(item))

	for _, base := range chaosBases {
		t.Run(base.name, func(t *testing.T) {
			dir := t.TempDir()
			modelPath := filepath.Join(dir, "m.clapf")
			if err := base.save(modelPath, model); err != nil {
				t.Fatal(err)
			}
			p := boot(t, modelPath, filepath.Join(dir, "wal"), train)
			defer p.wal.Close()
			before := servingFactors(p.srv)[u]

			seq, applied, err := p.ing.Ingest(context.Background(), u, item)
			if err != nil || seq != 1 {
				t.Fatalf("ingest: seq %d, err %v; the event must be durable either way", seq, err)
			}
			if got := p.ing.ExtraPositives(u); len(got) != 1 || got[0] != item {
				t.Fatalf("extras = %v, want [%d]: exclusion does not depend on the factor update", got, item)
			}
			after := servingFactors(p.srv)[u]
			changed := false
			for j := range after {
				if math.IsInf(math.Float64frombits(after[j]), 0) {
					t.Fatalf("factor %d served as ±Inf", j)
				}
				changed = changed || after[j] != before[j]
			}
			// float64 holds the solve; float32 cannot, so the row is refused.
			if wantApplied := base.precision == "f64"; applied != wantApplied || changed != wantApplied {
				t.Fatalf("applied=%v changed=%v, want both %v on a %s base", applied, changed, wantApplied, base.precision)
			}
			rec := httptest.NewRecorder()
			p.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			want := "clapf_online_update_rejected_total 1"
			if applied {
				want = "clapf_online_update_rejected_total 0"
			}
			if !strings.Contains(rec.Body.String(), want) {
				t.Errorf("/metrics missing %q", want)
			}
		})
	}
}
