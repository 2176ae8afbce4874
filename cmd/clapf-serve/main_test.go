package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"clapf"
	"clapf/internal/feedback"
	"clapf/internal/mf"
	"clapf/internal/serve"
	"clapf/internal/store"
)

func fixtureFiles(t *testing.T) (modelPath, trainPath string) {
	t.Helper()
	dir := t.TempDir()
	trainPath = filepath.Join(dir, "train.tsv")
	modelPath = filepath.Join(dir, "m.clapf")

	data, err := clapf.GenerateDataset(clapf.Profile{
		Name: "srvcli", Users: 30, Items: 50, Pairs: 600, Dim: 4, ZipfExp: 0.6, Affinity: 5,
	}, 1, 91)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(trainPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clapf.WriteDatasetTSV(f, data); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := clapf.DefaultConfig(clapf.MAP, data.NumPairs())
	cfg.Dim = 6
	cfg.Steps = 3000
	tr, err := clapf.NewTrainer(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	if err := clapf.SaveModelFile(modelPath, tr.Model()); err != nil {
		t.Fatal(err)
	}
	return
}

// The model file decides how it is served: a float64 file (from
// clapf-train -out, a checkpoint or a promotion) and a float32 file
// (clapf-train -export-f32) all boot through the same call, no flag, and
// carry their feedback watermark with them.
func TestBuildServerAndServe(t *testing.T) {
	modelPath, trainPath := fixtureFiles(t)
	model, err := clapf.LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	f64, f32 := modelPath+".f64", modelPath+".f32"
	if err := store.Export(f64, model, &store.Meta{FeedbackSeq: 7}); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveF32File(f32, mf.QuantizeF32(model), &store.Meta{FeedbackSeq: 9}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path      string
		precision string
		mapped    bool
		folded    uint64
	}{
		{modelPath, "f64", false, 0},
		{f64, "f64", false, 7},
		{f32, "f32", true, 9},
	} {
		s, meta, _, err := buildServer(c.path, trainPath)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if p, m := s.Backing(); p != c.precision || m != c.mapped {
			t.Errorf("%s: served as %s mapped=%v, want %s mapped=%v", c.path, p, m, c.precision, c.mapped)
		}
		if meta.FeedbackSeq != c.folded {
			t.Errorf("%s: watermark %d, want %d", c.path, meta.FeedbackSeq, c.folded)
		}
		ts := httptest.NewServer(s.Handler())
		resp, err := ts.Client().Get(ts.URL + "/recommend?user=1&k=3")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status = %d", c.path, resp.StatusCode)
		}
		var body serve.RecommendResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Items) != 3 {
			t.Errorf("%s: got %d items", c.path, len(body.Items))
		}
	}
}

func TestHandlerMetricsAndPprof(t *testing.T) {
	modelPath, trainPath := fixtureFiles(t)
	s, _, _, err := buildServer(modelPath, trainPath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		pprofOn    bool
		path       string
		wantStatus int
	}{
		{"metrics without pprof", false, "/metrics", 200},
		{"pprof index disabled", false, "/debug/pprof/", 404},
		{"metrics with pprof", true, "/metrics", 200},
		{"pprof index enabled", true, "/debug/pprof/", 200},
		{"pprof cmdline enabled", true, "/debug/pprof/cmdline", 200},
		{"recommend with pprof", true, "/recommend?user=1&k=3", 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(newHandler(s, c.pprofOn))
			defer ts.Close()
			resp, err := ts.Client().Get(ts.URL + c.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("GET %s = %d, want %d", c.path, resp.StatusCode, c.wantStatus)
			}
			if c.path == "/metrics" {
				buf, _ := io.ReadAll(resp.Body)
				if !strings.Contains(string(buf), "clapf_http_requests_total") {
					t.Errorf("/metrics exposition missing request counter:\n%s", buf)
				}
			}
		})
	}
}

func TestBuildServerErrors(t *testing.T) {
	modelPath, trainPath := fixtureFiles(t)
	if _, _, _, err := buildServer("", trainPath); err == nil {
		t.Error("missing model path accepted")
	}
	if _, _, _, err := buildServer(modelPath, ""); err == nil {
		t.Error("missing train path accepted")
	}
	if _, _, _, err := buildServer(filepath.Join(t.TempDir(), "gone"), trainPath); err == nil {
		t.Error("missing model file accepted")
	}
	if _, _, _, err := buildServer(modelPath, filepath.Join(t.TempDir(), "gone")); err == nil {
		t.Error("missing train file accepted")
	}
}

// healthGeneration fetches /healthz and returns the reported model
// generation, failing the test on any transport or decode error.
func healthGeneration(t *testing.T, base string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		ModelGeneration uint64 `json:"model_generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.ModelGeneration
}

// waitGeneration polls /healthz until the model generation reaches want,
// since signal handling in run() is asynchronous to the test goroutine.
func waitGeneration(t *testing.T, base string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if healthGeneration(t, base) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("model generation never reached %d", want)
}

// startRun launches run(o) on an ephemeral port with injected signals and
// returns the base URL, the signal channel and run's result channel.
func startRun(t *testing.T, o options) (base string, sig chan os.Signal, done chan error) {
	t.Helper()
	o.addr = "127.0.0.1:0"
	o.maxInFlight = 16
	o.requestTimeout = 5 * time.Second
	o.readTimeout = 5 * time.Second
	o.writeTimeout = 5 * time.Second
	o.idleTimeout = time.Minute
	o.sigCh = make(chan os.Signal, 1)
	bound := make(chan string, 1)
	o.boundAddr = bound

	done = make(chan error, 1)
	go func() { done <- run(o) }()
	select {
	case addr := <-bound:
		return "http://" + addr, o.sigCh, done
	case err := <-done:
		t.Fatalf("run exited before binding: %v", err)
	}
	return
}

// interrupt drains the server and waits for run to return cleanly.
func interrupt(t *testing.T, sig chan os.Signal, done chan error) {
	t.Helper()
	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after interrupt")
	}
}

func TestRunReloadAndShutdown(t *testing.T) {
	modelPath, trainPath := fixtureFiles(t)
	base, sig, done := startRun(t, options{modelPath: modelPath, trainPath: trainPath})

	if g := healthGeneration(t, base); g != 0 {
		t.Fatalf("fresh server generation = %d", g)
	}

	// SIGHUP with a rewritten valid model file: generation advances.
	model, err := clapf.LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clapf.SaveModelFile(modelPath, model); err != nil {
		t.Fatal(err)
	}
	sig <- syscall.SIGHUP
	waitGeneration(t, base, 1)

	// SIGHUP with a corrupt file: reload is rejected, the old model and
	// generation stay, and the server keeps answering.
	if err := os.WriteFile(modelPath, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	sig <- syscall.SIGHUP
	time.Sleep(100 * time.Millisecond)
	if g := healthGeneration(t, base); g != 1 {
		t.Fatalf("corrupt reload changed generation to %d", g)
	}
	resp, err := http.Get(base + "/recommend?user=1&k=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-corrupt-reload recommend = %d", resp.StatusCode)
	}

	// Interrupt: the server drains and run returns cleanly.
	interrupt(t, sig, done)
}

// health fetches the whole /healthz payload.
func health(t *testing.T, base string) serve.HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRunFeedbackComposesWithFloat32 is the composition the old
// -store-mmap/-feedback-log rejection forbade, end to end through run():
// a float32 model file is mapped, takes feedback, is promoted to a
// float32 file carrying the watermark, survives a SIGHUP and two restarts
// with no acknowledged event lost — and no flag says any of it.
func TestRunFeedbackComposesWithFloat32(t *testing.T) {
	modelPath, trainPath := fixtureFiles(t)
	model, err := clapf.LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveF32File(modelPath, mf.QuantizeF32(model), nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trainPath)
	if err != nil {
		t.Fatal(err)
	}
	train, err := clapf.ReadDatasetTSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Two batches of events, each an item its user has not seen.
	var first, second [][2]int32
	for u := int32(0); u < 8; u++ {
		for i := int32(0); i < int32(train.NumItems()); i++ {
			if !train.IsPositive(u, i) {
				if u < 5 {
					first = append(first, [2]int32{u, i})
				} else {
					second = append(second, [2]int32{u, i})
				}
				break
			}
		}
	}
	post := func(base string, events [][2]int32) {
		t.Helper()
		for _, ev := range events {
			resp, err := http.Post(base+"/feedback", "application/json",
				strings.NewReader(fmt.Sprintf(`{"user":%d,"item":%d}`, ev[0], ev[1])))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("feedback %v = %d", ev, resp.StatusCode)
			}
		}
	}
	requireServed := func(base string, gen, replayed, folded, pending uint64, overlay int) {
		t.Helper()
		h := health(t, base)
		if h.Precision != "f32" || !h.Mapped {
			t.Fatalf("served as %q mapped=%v, want the file's f32, mapped", h.Precision, h.Mapped)
		}
		fb := h.Feedback
		if h.ModelGeneration != gen || fb.Replayed != replayed || fb.FoldedSeq != folded ||
			fb.Pending != pending || fb.OverlayUsers != overlay {
			t.Fatalf("generation %d, feedback %+v; want generation %d, replayed %d, folded %d, pending %d, overlay users %d",
				h.ModelGeneration, *fb, gen, replayed, folded, pending, overlay)
		}
	}
	o := options{modelPath: modelPath, trainPath: trainPath,
		feedbackLog: filepath.Join(t.TempDir(), "wal")}
	n1, n2 := uint64(len(first)), uint64(len(second))

	// Boot with the promotion loop on: ingest, then wait for the log to be
	// folded into -model. Each successful promotion is one generation.
	o.promoteEvery = 20 * time.Millisecond
	base, sig, done := startRun(t, o)
	requireServed(base, 0, 0, 0, 0, 0)
	post(base, first)
	deadline := time.Now().Add(10 * time.Second)
	// The promoter counts an outcome after its install has returned, so
	// the folded watermark alone can be seen a moment before the count.
	h := health(t, base)
	for h.Feedback.FoldedSeq != n1 || h.Feedback.Promotions[feedback.PromoteOK] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("log never folded: %+v", *h.Feedback)
		}
		time.Sleep(10 * time.Millisecond)
		h = health(t, base)
	}
	if ok := h.Feedback.Promotions[feedback.PromoteOK]; ok == 0 || h.ModelGeneration != ok {
		t.Fatalf("generation %d after promotions %v", h.ModelGeneration, h.Feedback.Promotions)
	}
	requireServed(base, h.ModelGeneration, 0, n1, 0, 0)
	interrupt(t, sig, done)

	// The promoted file is still float32, and carries the watermark.
	if p, meta, err := store.Open(modelPath); err != nil || p.ElemBytes() != 4 || meta.FeedbackSeq != n1 {
		t.Fatalf("promoted file: %T watermark %+v, err %v; want float32 at %d", p, meta, err, n1)
	}

	// Restart without the loop: the whole log is replayed for exclusions,
	// nothing lies beyond the file's watermark. More events, then SIGHUP:
	// the reload reads the same watermark and re-solves only those.
	o.promoteEvery = 0
	base, sig, done = startRun(t, o)
	requireServed(base, 0, n1, n1, 0, 0)
	post(base, second)
	sig <- syscall.SIGHUP
	waitGeneration(t, base, 1)
	requireServed(base, 1, n1, n1, n2, len(second))
	interrupt(t, sig, done)

	// Restart again: what is replayed into the overlay is exactly the
	// events beyond the file's watermark, and every acknowledged event —
	// folded or not — is still excluded from its user's recommendations.
	base, sig, done = startRun(t, o)
	requireServed(base, 0, n1+n2, n1, n2, len(second))
	for _, ev := range append(first, second...) {
		resp, err := http.Get(fmt.Sprintf("%s/recommend?user=%d&k=100", base, ev[0]))
		if err != nil {
			t.Fatal(err)
		}
		var body serve.RecommendResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || len(body.Items) == 0 {
			t.Fatalf("recommend for user %d: %v, %d items", ev[0], err, len(body.Items))
		}
		for _, it := range body.Items {
			if it.Item == ev[1] {
				t.Fatalf("acked event %v recommended back after the restart", ev)
			}
		}
	}
	interrupt(t, sig, done)
}
