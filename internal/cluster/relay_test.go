package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"clapf/internal/obs"
	"clapf/internal/serve"
)

// shardBody is a /recommend body as a shard writes it: serve's payload type
// through a json.Encoder.
func shardBody(t testing.TB, user *int32, items []serve.Item) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(serve.RecommendResponse{User: user, Items: items}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ptr(v int32) *int32 { return &v }

// relaySeeds are bodies the scanner must accept: serve's own encoding at
// the corners of its grammar.
func relaySeeds(t testing.TB) map[string][]byte {
	return map[string][]byte{
		"top-3": shardBody(t, ptr(7), []serve.Item{{Item: 11, Score: 1.5}, {Item: 12, Score: -0.3712358343893377}, {Item: 13, Score: 0.30000000000000004}}),
		"exponent forms": shardBody(t, ptr(1), []serve.Item{{Item: 1, Score: 1e-9}, {Item: 2, Score: 1e21}, {Item: 3, Score: -1.2345678901234567e-308},
			{Item: 4, Score: 9.999999e-7}, {Item: 5, Score: 1e-6}, {Item: 6, Score: 999999999999999900000}, {Item: 7, Score: math.MaxFloat64}, {Item: 8, Score: 5e-324}}),
		"zeros":       shardBody(t, ptr(0), []serve.Item{{Item: 0, Score: 0}, {Item: 1, Score: math.Copysign(0, -1)}}),
		"int32 ends":  shardBody(t, ptr(math.MinInt32), []serve.Item{{Item: math.MaxInt32, Score: 1}, {Item: math.MinInt32, Score: -1}}),
		"one item":    shardBody(t, ptr(2147483647), []serve.Item{{Item: 5, Score: 100}}),
		"cold start":  shardBody(t, nil, []serve.Item{{Item: 3, Score: 0.5}, {Item: 4, Score: 0.25}}),
		"empty list":  shardBody(t, ptr(3), []serve.Item{}),
		"cold, empty": shardBody(t, nil, []serve.Item{}),
	}
}

// relayViaDecode is the reference the splice is held to: what the router
// did to every 200 before it relayed bytes, and still does to a body the
// scanner declines — decode into a Response, set the labels, encode.
func relayViaDecode(body []byte, degraded, shard string) ([]byte, error) {
	var rec Response
	if err := json.Unmarshal(body, &rec); err != nil {
		return nil, err
	}
	rec.Degraded, rec.Shard = degraded, shard
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(rec)
	return buf.Bytes(), err
}

// checkSplice holds splice to relayViaDecode for the three label sets the
// router writes: the home shard's, a replica's, and the stale rung's.
func checkSplice(t *testing.T, body []byte, shard string) {
	t.Helper()
	for _, labels := range []struct {
		degraded, shard string
		suffix          []byte
	}{
		{"", shard, labelSuffix("", shard)},
		{DegradedReplica, shard, labelSuffix(DegradedReplica, shard)},
		{DegradedStaleCache, "", staleSuffix},
	} {
		want, err := relayViaDecode(body, labels.degraded, labels.shard)
		if err != nil {
			t.Fatalf("scanRecommend accepted %q, which does not decode: %v", body, err)
		}
		rec := httptest.NewRecorder()
		splice(rec, body, labels.suffix)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("body %q, degraded=%q shard=%q: splice wrote\n%q\ndecode, label, encode gives\n%q",
				body, labels.degraded, labels.shard, rec.Body.Bytes(), want)
		}
	}
}

func TestScanRecommendAcceptsServesEncoding(t *testing.T) {
	for name, body := range relaySeeds(t) {
		if !scanRecommend(body) {
			t.Errorf("%s: declined serve's own encoding %q", name, body)
			continue
		}
		checkSplice(t, body, `shard-<"a"&b>`+" ")
	}
}

func TestScanRecommendDeclines(t *testing.T) {
	const item = `{"item":1,"score":0.5}`
	for name, body := range map[string]string{
		"empty":                 ``,
		"empty object":          `{}` + "\n",
		"array":                 `[]` + "\n",
		"null items":            `{"items":null}` + "\n",
		"string user":           `{"user":"7","items":[` + item + `]}` + "\n",
		"user past int32":       `{"user":2147483648,"items":[` + item + `]}` + "\n",
		"item past int32":       `{"user":7,"items":[{"item":2147483648,"score":0.5}]}` + "\n",
		"item below int32":      `{"user":7,"items":[{"item":-2147483649,"score":0.5}]}` + "\n",
		"eleven digits":         `{"user":7,"items":[{"item":10000000000,"score":0.5}]}` + "\n",
		"leading zero, user":    `{"user":07,"items":[` + item + `]}` + "\n",
		"leading zero, item":    `{"user":7,"items":[{"item":01,"score":0.5}]}` + "\n",
		"leading zero, score":   `{"user":7,"items":[{"item":1,"score":00.5}]}` + "\n",
		"minus zero item":       `{"user":7,"items":[{"item":-0,"score":0.5}]}` + "\n",
		"fractional item":       `{"user":7,"items":[{"item":1.0,"score":0.5}]}` + "\n",
		"overflowing score":     `{"user":7,"items":[{"item":1,"score":1e999}]}` + "\n",
		"trailing zero":         `{"user":7,"items":[{"item":1,"score":0.50}]}` + "\n",
		"capital exponent":      `{"user":7,"items":[{"item":1,"score":1E-9}]}` + "\n",
		"unsigned exponent":     `{"user":7,"items":[{"item":1,"score":1e21}]}` + "\n",
		"padded exponent":       `{"user":7,"items":[{"item":1,"score":1e-09}]}` + "\n",
		"exponent in f range":   `{"user":7,"items":[{"item":1,"score":1e+20}]}` + "\n",
		"too many digits":       `{"user":7,"items":[{"item":1,"score":0.1000000000000000055511151231257827}]}` + "\n",
		"not the shortest":      `{"user":7,"items":[{"item":1,"score":0.10000000000000001}]}` + "\n",
		"bare fraction":         `{"user":7,"items":[{"item":1,"score":.5}]}` + "\n",
		"plus sign":             `{"user":7,"items":[{"item":1,"score":+0.5}]}` + "\n",
		"NaN":                   `{"user":7,"items":[{"item":1,"score":NaN}]}` + "\n",
		"string score":          `{"user":7,"items":[{"item":1,"score":"0.5"}]}` + "\n",
		"trailing bytes":        `{"user":7,"items":[` + item + `]}` + "\n\n",
		"trailing object":       `{"user":7,"items":[` + item + `]}` + "\n{}",
		"no final newline":      `{"user":7,"items":[` + item + `]}`,
		"space after colon":     `{"user": 7,"items":[` + item + `]}` + "\n",
		"items before user":     `{"items":[` + item + `],"user":7}` + "\n",
		"score before item":     `{"user":7,"items":[{"score":0.5,"item":1}]}` + "\n",
		"extra field":           `{"user":7,"items":[` + item + `],"degraded":"replica"}` + "\n",
		"extra item field":      `{"user":7,"items":[{"item":1,"score":0.5,"x":1}]}` + "\n",
		"trailing comma":        `{"user":7,"items":[` + item + `,]}` + "\n",
		"unclosed list":         `{"user":7,"items":[` + item + `}` + "\n",
		"unclosed, long enough": `{"user":7,"items":[` + item + `,` + item,
		"error payload":         `{"error":"invalid user \"x\""}` + "\n",
	} {
		if scanRecommend([]byte(body)) {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
}

// TestAppendJSONFloatIsTheEncoders pins the one piece of encoding/json the
// scanner restates.
func TestAppendJSONFloatIsTheEncoders(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.999999e-7, 1e-7, 1e-9, 1.5e-10, 1e-100,
		1e20, 999999999999999900000, 1e21, 1.5e21, 1e100, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 123456789.12345679, -0.3712358343893377, 2.2250738585072014e-308}
	for _, f := range values {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%g: appendJSONFloat wrote %s, encoding/json writes %s", f, got, want)
		}
		if len(want) > maxNumberLen {
			t.Errorf("%s is %d bytes, over maxNumberLen", want, len(want))
		}
	}
}

func TestScanRecommendDoesNotAllocate(t *testing.T) {
	for name, body := range relaySeeds(t) {
		if n := testing.AllocsPerRun(100, func() {
			if !scanRecommend(body) {
				t.Fatalf("%s: declined", name)
			}
		}); n != 0 {
			t.Errorf("%s: scanRecommend allocates %v times a call, want 0", name, n)
		}
	}
	user, body := int32(math.MinInt32), relaySeeds(t)["int32 ends"]
	if n := testing.AllocsPerRun(100, func() {
		if !answersUser(body, user) {
			t.Fatal("answersUser: wrong user")
		}
	}); n != 0 {
		t.Errorf("answersUser allocates %v times a call, want 0", n)
	}
}

func TestAnswersUser(t *testing.T) {
	body := shardBody(t, ptr(12), []serve.Item{{Item: 1, Score: 0.5}})
	for u, want := range map[int32]bool{12: true, 1: false, 120: false, -12: false} {
		if got := answersUser(body, u); got != want {
			t.Errorf("answersUser(%q, %d) = %v", body, u, got)
		}
	}
	if answersUser(shardBody(t, nil, []serve.Item{{Item: 1, Score: 0.5}}), 0) {
		t.Error("a cold-start body answers for user 0")
	}
}

// FuzzRelayRecommend: whatever arrives, either the scanner declines it —
// and the router decodes it as it always did — or splicing the labels onto
// it gives byte for byte what decoding it, labelling the Response and
// encoding that gives.
func FuzzRelayRecommend(f *testing.F) {
	for _, body := range relaySeeds(f) {
		f.Add(body, "shard-0")
	}
	f.Add([]byte(`{"user":7,"items":[{"item":1,"score":0.50}]}`+"\n"), `a"<b>&`)
	f.Add([]byte(`{"items":null}`+"\n"), "\xff ")
	f.Fuzz(func(t *testing.T, body []byte, shard string) {
		if !scanRecommend(body) {
			return
		}
		checkSplice(t, body, shard)
	})
}

// stubShard answers every request with body.
func stubShard(t testing.TB, body string) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterRelayPaths: a shard that writes serve's encoding is relayed by
// splice, one that writes the same answer any other way by decode — the
// client reads the same bytes either way, and /metrics says which it was.
// Both leave a stale copy the last rung can serve.
func TestRouterRelayPaths(t *testing.T) {
	canonical := string(shardBody(t, ptr(7), []serve.Item{{Item: 11, Score: 1.5}, {Item: 12, Score: 0.25}}))
	for _, c := range []struct {
		path, body string
	}{
		{"spliced", canonical},
		{"decoded", strings.ReplaceAll(canonical, `:`, `: `)},
	} {
		t.Run(c.path, func(t *testing.T) {
			ts := stubShard(t, c.body)
			r, err := NewRouter(Config{Shards: []ShardConfig{{Name: "only", URL: ts.URL}}, NoHedge: true, MaxRetries: -1})
			if err != nil {
				t.Fatal(err)
			}
			h := r.Handler()
			rec, _ := routerGet(t, h, "/recommend?user=7&k=2")
			want, err := relayViaDecode([]byte(canonical), "", "only")
			if err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("status %d, body %q, want %q", rec.Code, rec.Body.Bytes(), want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			taken := map[string]uint64{"spliced": r.relaySpliced.Value(), "decoded": r.relayDecoded.Value()}
			if taken[c.path] != 1 || len(taken) != 2 || taken["spliced"]+taken["decoded"] != 1 {
				t.Errorf("clapf_router_relay_total = %v, want one %s", taken, c.path)
			}
			mrec := httptest.NewRecorder()
			h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if series := fmt.Sprintf(`clapf_router_relay_total{path=%q} 1`, c.path); !strings.Contains(mrec.Body.String(), series) {
				t.Errorf("/metrics lacks %s", series)
			}

			ts.Close()
			rec, _ = routerGet(t, h, "/recommend?user=7&k=2")
			want, err = relayViaDecode([]byte(canonical), DegradedStaleCache, "")
			if err != nil {
				t.Fatal(err)
			}
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("stale rung: status %d, body %q, want %q", rec.Code, rec.Body.Bytes(), want)
			}
		})
	}
}

// TestRouterStaleCopyIsTheRequestedUsers: a body that answers for another
// user is relayed as the shard's word, as it always was, but is not kept as
// the requested user's stale copy.
func TestRouterStaleCopyIsTheRequestedUsers(t *testing.T) {
	ts := stubShard(t, string(shardBody(t, ptr(70), []serve.Item{{Item: 11, Score: 1.5}})))
	r, err := NewRouter(Config{Shards: []ShardConfig{{Name: "only", URL: ts.URL}}, NoHedge: true, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rec, body := routerGet(t, r.Handler(), "/recommend?user=7&k=1"); rec.Code != http.StatusOK || *body.User != 70 {
		t.Fatalf("status %d, body %+v", rec.Code, body)
	}
	if n := r.stale.size(); n != 0 {
		t.Errorf("the stale cache kept %d entries for a body answering another user", n)
	}
}

// TestRouterWriteJSONEncodeErrorLoggedAndCounted: the router's encode
// failures show where the shard's do.
func TestRouterWriteJSONEncodeErrorLoggedAndCounted(t *testing.T) {
	r, err := NewRouter(Config{Shards: []ShardConfig{{Name: "only", URL: "http://127.0.0.1:0"}}})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	r.SetLogger(obs.NewTextLogger(&logBuf, slog.LevelInfo))
	r.writeJSON(httptest.NewRecorder(), http.StatusOK, math.NaN()) // json: unsupported value
	if got := r.encodeErrors.Value(); got != 1 {
		t.Errorf("encode errors = %d, want 1", got)
	}
	if !strings.Contains(logBuf.String(), "response encode failed") {
		t.Errorf("encode error not logged: %q", logBuf.String())
	}
	mrec := httptest.NewRecorder()
	r.Handler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "clapf_encode_errors_total 1") {
		t.Errorf("/metrics lacks clapf_encode_errors_total 1:\n%s", mrec.Body.String())
	}
}
