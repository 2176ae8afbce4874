package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"clapf"
	"clapf/internal/cluster"
	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/serve"
)

func TestParseShards(t *testing.T) {
	got, err := parseShards(" http://a:1 ,, http://b:2 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "shard-0" || got[1].Name != "shard-1" {
		t.Errorf("positional names wrong: %+v", got)
	}
	if got[0].URL != "http://a:1" || got[1].URL != "http://b:2" {
		t.Errorf("URLs not trimmed: %+v", got)
	}

	got, err = parseShards("east=http://a:1,west=https://b:2")
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Name != "east" || got[1].Name != "west" || got[1].URL != "https://b:2" {
		t.Errorf("named shards wrong: %+v", got)
	}

	for _, bad := range []string{"", " , ", "ftp://a:1", "just-a-host:8080"} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("parseShards(%q) accepted", bad)
		}
	}
}

func TestBuildRouterErrors(t *testing.T) {
	if _, err := buildRouter(options{shardSpec: ""}); err == nil {
		t.Error("empty -shards accepted")
	}
	if _, err := buildRouter(options{shardSpec: "http://a:1", trainPath: "/nonexistent/train.tsv"}); err == nil {
		t.Error("missing -train file accepted")
	}
}

// fixture generates a tiny world, a valid model over it, and the
// training TSV on disk for the router's -train fallback path.
func fixture(t *testing.T) (*mf.Model, *dataset.Dataset, string) {
	t.Helper()
	w, err := datagen.Generate(datagen.Profile{
		Name: "routercli", Users: 40, Items: 60, Pairs: 900,
		ZipfExp: 0.6, Dim: 4, Affinity: 5,
	}, mathx.NewRNG(17))
	if err != nil {
		t.Fatal(err)
	}
	m := mf.MustNew(mf.Config{
		NumUsers: w.Data.NumUsers(), NumItems: w.Data.NumItems(), Dim: 4, UseBias: true,
	})
	m.InitGaussian(mathx.NewRNG(18), 0.1)

	trainPath := filepath.Join(t.TempDir(), "train.tsv")
	f, err := os.Create(trainPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clapf.WriteDatasetTSV(f, w.Data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return m, w.Data, trainPath
}

// startShards spins n in-process serve shards with admin reload enabled
// and returns their base URLs plus the servers (to watch generations).
func startShards(t *testing.T, m *mf.Model, train *dataset.Dataset, n int) ([]string, []*serve.Server) {
	t.Helper()
	urls := make([]string, n)
	srvs := make([]*serve.Server, n)
	for i := range urls {
		s, err := serve.New(m.Clone(), train)
		if err != nil {
			t.Fatal(err)
		}
		s.EnableAdminReload(func() error { return s.Install(s.Model().Clone(), serve.InstallOpts{Folded: serve.KeepFoldedSeq}) })
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		srvs[i] = s
	}
	return urls, srvs
}

// routerOptions builds a fast-knobbed options struct for run() tests.
func routerOptions(shardURLs []string, trainPath string, bound chan string) options {
	return options{
		shardSpec:      strings.Join(shardURLs, ","),
		addr:           "127.0.0.1:0",
		trainPath:      trainPath,
		vnodes:         64,
		maxRetries:     3,
		attemptTimeout: 2 * time.Second,
		staleCache:     128,
		breakFailures:  3,
		breakCooldown:  100 * time.Millisecond,
		probeInterval:  10 * time.Millisecond,
		probeTimeout:   500 * time.Millisecond,
		seed:           42,
		sigCh:          make(chan os.Signal, 1),
		boundAddr:      bound,
	}
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// End to end through the real binary plumbing: bind, route, reload on
// SIGHUP, drain on interrupt.
func TestRunRoutesReloadsAndShutsDown(t *testing.T) {
	m, train, trainPath := fixture(t)
	urls, srvs := startShards(t, m, train, 3)

	bound := make(chan string, 1)
	o := routerOptions(urls, trainPath, bound)

	done := make(chan error, 1)
	go func() { done <- run(o) }()
	base := "http://" + <-bound

	// Routed traffic: fresh answers, shard named, never degraded. A user
	// whose history already covers the catalog legitimately gets fewer
	// than k items back.
	for u := 0; u < 8; u++ {
		unseen := 0
		for it := int32(0); it < int32(train.NumItems()); it++ {
			if !train.IsPositive(int32(u), it) {
				unseen++
			}
		}
		want := min(5, unseen)
		var body cluster.Response
		if code := getJSON(t, fmt.Sprintf("%s/recommend?user=%d&k=5", base, u), &body); code != http.StatusOK {
			t.Fatalf("user %d: status %d", u, code)
		}
		if body.Degraded != "" {
			t.Errorf("user %d: healthy cluster answered degraded=%q", u, body.Degraded)
		}
		if body.Shard == "" || len(body.Items) != want {
			t.Errorf("user %d: shard=%q items=%d, want %d", u, body.Shard, len(body.Items), want)
		}
	}
	if code := getJSON(t, base+"/readyz", nil); code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", code)
	}

	// SIGHUP sweeps the fleet: every shard's generation must advance.
	o.sigCh <- syscall.SIGHUP
	deadline := time.Now().Add(10 * time.Second)
	for {
		reloaded := 0
		for _, s := range srvs {
			if s.Generation() > 0 {
				reloaded++
			}
		}
		if reloaded == len(srvs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rolling reload incomplete: %d/%d shards reloaded", reloaded, len(srvs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Traffic still flows after the sweep.
	var body cluster.Response
	if code := getJSON(t, base+"/recommend?user=1&k=5", &body); code != http.StatusOK || body.Degraded != "" {
		t.Errorf("post-reload: status %d degraded %q", code, body.Degraded)
	}

	o.sigCh <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after interrupt")
	}
}

// With no -train the router still starts; when every shard is gone it
// answers from the stale cache or says an honest 503 — never hangs.
func TestRunWithoutTrainFallsBackHonestly(t *testing.T) {
	m, train, _ := fixture(t)
	urls, _ := startShards(t, m, train, 2)

	bound := make(chan string, 1)
	o := routerOptions(urls, "", bound)

	done := make(chan error, 1)
	go func() { done <- run(o) }()
	base := "http://" + <-bound

	var body cluster.Response
	if code := getJSON(t, base+"/recommend?user=3&k=5", &body); code != http.StatusOK {
		t.Fatalf("healthy request: status %d", code)
	}
	if body.Degraded != "" {
		t.Errorf("healthy request degraded=%q", body.Degraded)
	}

	o.sigCh <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after interrupt")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(options{shardSpec: ""}); err == nil {
		t.Error("run accepted empty shard list")
	}
}
