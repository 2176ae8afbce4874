package cluster

import (
	"bytes"
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const stubBody = `{"user":7,"items":[{"item":11,"score":1.5}]}` + "\n"

// countedShard is an httptest shard that counts the connections it
// accepted and the ones it has seen closed.
type countedShard struct {
	*httptest.Server
	accepted, closed atomic.Int64
}

func newCountedShard(t testing.TB, h http.HandlerFunc) *countedShard {
	cs := &countedShard{Server: httptest.NewUnstartedServer(h)}
	cs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			cs.accepted.Add(1)
		case http.StateClosed:
			cs.closed.Add(1)
		}
	}
	cs.Start()
	t.Cleanup(cs.Close)
	return cs
}

func canned(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, stubBody)
}

// oneShardRouter is a router over url alone: no hedge, no retry, a breaker
// that opens on the first failure.
func oneShardRouter(t testing.TB, url string, mut func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Shards:  []ShardConfig{{Name: "only", URL: url}},
		NoHedge: true, MaxRetries: -1,
		Breaker: BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute},
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *Router) idleConns(i int) int {
	p := r.shards[i].conns
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// rawShard accepts connections on a loopback listener and hands each to
// serve, for the responses net/http's server will not write.
func rawShard(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns { // the router's pool may still hold its end
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				serve(c)
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// readRequest reads one request off c, header and Content-Length body, as
// the bytes it came in.
func readRequest(c net.Conn) []byte {
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if head, body, ok := bytes.Cut(got, []byte("\r\n\r\n")); ok {
			var want int
			for _, line := range strings.Split(string(head), "\r\n") {
				_, _ = fmt.Sscanf(line, "Content-Length: %d", &want)
			}
			if len(body) >= want {
				return got
			}
		}
		if err != nil {
			return got
		}
	}
}

// A pooled connection the shard closed while it sat idle is not the shard
// failing: the read goes out again on a fresh connection and nothing is
// charged.
func TestShardConnStaleKeepAliveIsRetriedUncharged(t *testing.T) {
	cs := newCountedShard(t, canned)
	r := oneShardRouter(t, cs.URL, nil)
	h := r.Handler()
	if rec, _ := routerGet(t, h, "/recommend?user=7&k=1"); rec.Code != http.StatusOK {
		t.Fatalf("first read: status %d", rec.Code)
	}
	if r.idleConns(0) != 1 {
		t.Fatalf("idle connections = %d after one read, want 1", r.idleConns(0))
	}
	cs.CloseClientConnections()
	waitFor(t, "the shard to close its side", func() bool { return cs.closed.Load() == 1 })
	rec, body := routerGet(t, h, "/recommend?user=7&k=1")
	if rec.Code != http.StatusOK || body.Degraded != "" {
		t.Fatalf("second read: status %d degraded %q, want a plain 200", rec.Code, body.Degraded)
	}
	if got := cs.accepted.Load(); got != 2 {
		t.Errorf("shard accepted %d connections, want 2", got)
	}
	if e, ok := r.shardReqs.With("only", "error").Value(), r.shardReqs.With("only", "ok").Value(); e != 0 || ok != 2 {
		t.Errorf("shard requests error=%d ok=%d, want 0 and 2", e, ok)
	}
	if r.Breaker(0).State() != BreakerClosed || r.retries.Value() != 0 {
		t.Errorf("breaker %v, retries %d: a stale connection was charged", r.Breaker(0).State(), r.retries.Value())
	}
}

// The caller's context ending unblocks the exchange at once, settles as a
// cancel, and the connection it was on is closed, not pooled.
func TestShardConnCancelMidExchange(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	cs := newCountedShard(t, func(w http.ResponseWriter, req *http.Request) {
		if slow.Load() {
			select {
			case <-req.Context().Done():
			case <-time.After(5 * time.Second):
			}
			return
		}
		canned(w, req)
	})
	r := oneShardRouter(t, cs.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	res := r.forward(ctx, UserKey(7), "/recommend?user=7&k=1", true)
	if took := time.Since(start); took > time.Second {
		t.Errorf("canceled exchange returned after %v", took)
	}
	if !errors.Is(res.err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", res.err)
	}
	if c, e := r.shardReqs.With("only", "canceled").Value(), r.shardReqs.With("only", "error").Value(); c != 1 || e != 0 {
		t.Errorf("shard requests canceled=%d error=%d, want 1 and 0", c, e)
	}
	if r.Breaker(0).State() != BreakerClosed {
		t.Errorf("breaker %v after a caller's cancel", r.Breaker(0).State())
	}
	waitFor(t, "the canceled connection to close", func() bool { return cs.closed.Load() == 1 })
	if n := r.idleConns(0); n != 0 {
		t.Errorf("%d idle connections: the canceled one was pooled", n)
	}
	slow.Store(false)
	if res := r.forward(context.Background(), UserKey(7), "/recommend?user=7&k=1", true); res.err != nil {
		t.Fatalf("read after the cancel: %v", res.err)
	}
	if got := cs.accepted.Load(); got != 2 {
		t.Errorf("shard accepted %d connections, want 2 (a fresh dial)", got)
	}
}

// The attempt's own deadline passing with the caller still there is the
// shard's failure.
func TestShardConnAttemptTimeoutIsCharged(t *testing.T) {
	cs := newCountedShard(t, func(w http.ResponseWriter, req *http.Request) {
		select {
		case <-req.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	r := oneShardRouter(t, cs.URL, func(c *Config) { c.AttemptTimeout = 30 * time.Millisecond })
	start := time.Now()
	res := r.forward(context.Background(), UserKey(7), "/recommend?user=7&k=1", true)
	if took := time.Since(start); res.err == nil || took > time.Second {
		t.Fatalf("err = %v after %v, want a timeout near 30ms", res.err, took)
	}
	if c, e := r.shardReqs.With("only", "canceled").Value(), r.shardReqs.With("only", "error").Value(); c != 0 || e != 1 {
		t.Errorf("shard requests canceled=%d error=%d, want 0 and 1", c, e)
	}
	if r.Breaker(0).Opens() != 1 {
		t.Errorf("breaker opens = %d, want 1", r.Breaker(0).Opens())
	}
}

// A body shorter than its Content-Length is a torn response: a failure,
// and none of its bytes are relayed.
func TestShardConnShortBodyIsTorn(t *testing.T) {
	url := rawShard(t, func(c net.Conn) {
		readRequest(c)
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			len(stubBody), stubBody[:len(stubBody)/2])
	})
	r := oneShardRouter(t, url, nil)
	res := r.forward(context.Background(), UserKey(7), "/recommend?user=7&k=1", true)
	if !errors.Is(res.err, io.ErrUnexpectedEOF) || res.body != nil {
		t.Fatalf("err = %v, body %q; want io.ErrUnexpectedEOF and no body", res.err, res.body)
	}
	if e := r.shardReqs.With("only", "error").Value(); e != 1 || r.Breaker(0).Opens() != 1 {
		t.Errorf("shard errors = %d, breaker opens = %d, want 1 and 1", e, r.Breaker(0).Opens())
	}
	if n := r.idleConns(0); n != 0 {
		t.Errorf("%d idle connections after a torn response", n)
	}
}

// Chunked, close-delimited and HTTP/1.0 bodies all read whole; only a
// keep-alive connection is pooled.
func TestShardConnBodyFramings(t *testing.T) {
	for _, c := range []struct {
		name   string
		shard  func(t *testing.T) string
		pooled int
	}{
		{"chunked", func(t *testing.T) string {
			return newCountedShard(t, func(w http.ResponseWriter, req *http.Request) {
				_, _ = io.WriteString(w, stubBody[:10])
				w.(http.Flusher).Flush()
				_, _ = io.WriteString(w, stubBody[10:])
			}).URL
		}, 1},
		{"connection-close", func(t *testing.T) string {
			return newCountedShard(t, func(w http.ResponseWriter, req *http.Request) {
				w.Header().Set("Connection", "close")
				canned(w, req)
			}).URL
		}, 0},
		{"close-delimited", func(t *testing.T) string {
			return rawShard(t, func(c net.Conn) {
				readRequest(c)
				_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\n\r\n"+stubBody)
			})
		}, 0},
		{"http-1.0", func(t *testing.T) string {
			return rawShard(t, func(c net.Conn) {
				readRequest(c)
				fmt.Fprintf(c, "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(stubBody), stubBody)
				readRequest(c) // held open: not pooling it is the router's call
			})
		}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := oneShardRouter(t, c.shard(t), nil)
			for i := 0; i < 2; i++ {
				res := r.forward(context.Background(), UserKey(7), "/recommend?user=7&k=1", true)
				if res.err != nil || res.status != http.StatusOK || string(res.body) != stubBody {
					t.Fatalf("read %d: err %v, status %d, body %q", i, res.err, res.status, res.body)
				}
				if n := r.idleConns(0); n != c.pooled {
					t.Fatalf("read %d: %d idle connections, want %d", i, n, c.pooled)
				}
			}
		})
	}
}

// What goes on the wire, byte for byte: the base URL's path in front of
// the request's, Host, and for a write its type, length and body.
func TestShardConnRequestBytes(t *testing.T) {
	var mu sync.Mutex
	var got []string
	url := rawShard(t, func(c net.Conn) {
		for {
			req := readRequest(c)
			if len(req) == 0 {
				return
			}
			mu.Lock()
			got = append(got, string(req))
			mu.Unlock()
			_, _ = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
		}
	})
	p, err := newShardConns(url + "/fleet/a/")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const event = `{"user":7,"item":3}`
	for _, call := range []func() (shardAnswer, error){
		func() (shardAnswer, error) {
			return p.exchange(ctx, time.Second, http.MethodGet, "/recommend?user=7&k=1", "", nil)
		},
		func() (shardAnswer, error) {
			return p.exchange(ctx, time.Second, http.MethodPost, "/feedback", "application/json", []byte(event))
		},
		func() (shardAnswer, error) {
			return p.exchange(ctx, time.Second, http.MethodPost, "/admin/reload", "", nil)
		},
	} {
		if ans, err := call(); err != nil || ans.status != http.StatusOK || string(ans.body) != "ok" {
			t.Fatalf("exchange: %+v, %v", ans, err)
		}
	}
	host := strings.TrimPrefix(url, "http://")
	want := []string{
		"GET /fleet/a/recommend?user=7&k=1 HTTP/1.1\r\nHost: " + host + "\r\n\r\n",
		"POST /fleet/a/feedback HTTP/1.1\r\nHost: " + host + "\r\nContent-Type: application/json\r\nContent-Length: 19\r\n\r\n" + event,
		"POST /fleet/a/admin/reload HTTP/1.1\r\nHost: " + host + "\r\nContent-Length: 0\r\n\r\n",
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("shard read %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// An https:// shard is dialed through TLS and its certificate verified
// against the URL's host.
func TestShardConnHTTPS(t *testing.T) {
	ts := httptest.NewTLSServer(http.HandlerFunc(canned))
	t.Cleanup(ts.Close)
	p, err := newShardConns(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	p.roots = x509.NewCertPool() // trusts nobody
	if _, err := p.exchange(context.Background(), time.Second, http.MethodGet, "/recommend?user=7", "", nil); err == nil {
		t.Fatal("exchange succeeded against a certificate no root signed")
	}
	p.roots.AddCert(ts.Certificate())
	for i := 0; i < 2; i++ { // the second on the pooled connection
		ans, err := p.exchange(context.Background(), time.Second, http.MethodGet, "/recommend?user=7", "", nil)
		if err != nil || ans.status != http.StatusOK || string(ans.body) != stubBody {
			t.Fatalf("exchange %d: %+v, %v", i, ans, err)
		}
	}
	if len(p.idle) != 1 {
		t.Errorf("%d idle connections, want 1", len(p.idle))
	}
}

func TestNewShardConnsAddresses(t *testing.T) {
	for _, c := range []struct{ url, addr, host, prefix, tlsName string }{
		{"http://10.0.0.3:8080", "10.0.0.3:8080", "10.0.0.3:8080", "", ""},
		{"http://shard-a", "shard-a:80", "shard-a", "", ""},
		{"https://shard-a/base/", "shard-a:443", "shard-a", "/base", "shard-a"},
		{"https://[::1]:8443", "[::1]:8443", "[::1]:8443", "", "::1"},
	} {
		p, err := newShardConns(c.url)
		if err != nil {
			t.Errorf("%s: %v", c.url, err)
			continue
		}
		if p.addr != c.addr || p.host != c.host || p.prefix != c.prefix || p.tlsName != c.tlsName {
			t.Errorf("%s: addr %q host %q prefix %q tlsName %q", c.url, p.addr, p.host, p.prefix, p.tlsName)
		}
	}
	for _, bad := range []string{"shard-a:8080", "ftp://shard-a", "http://", "http://a b"} {
		if _, err := newShardConns(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// closeCounter is a connection that only knows whether it was closed.
type closeCounter struct {
	net.Conn
	closed *int
}

func (c closeCounter) Close() error { *c.closed++; return nil }

// The pool holds at most maxIdleConns, hands back the most recently used,
// and drops what sat idle past idleConnTimeout when it is next looked at.
func TestShardConnPoolBounds(t *testing.T) {
	var p shardConns
	var closed int
	t0 := time.Unix(1_000_000, 0)
	conns := make([]*shardConn, maxIdleConns+6)
	for i := range conns {
		conns[i] = &shardConn{Conn: closeCounter{closed: &closed}}
		p.checkin(conns[i], t0.Add(time.Duration(i)*time.Second))
	}
	if len(p.idle) != maxIdleConns || closed != 6 {
		t.Fatalf("%d idle, %d closed; want %d and 6", len(p.idle), closed, maxIdleConns)
	}
	last := conns[maxIdleConns-1]
	if c := p.checkout(last.idleSince.Add(idleConnTimeout)); c != last {
		t.Fatal("checkout did not return the most recently pooled connection")
	}
	// The newest one left went in a second earlier: it has sat a second too
	// long, and so have all the older ones under it.
	closed = 0
	if c := p.checkout(last.idleSince.Add(idleConnTimeout)); c != nil {
		t.Fatal("checkout returned a connection idle past the limit")
	}
	if len(p.idle) != 0 || closed != maxIdleConns-1 {
		t.Errorf("%d idle, %d closed; want 0 and %d", len(p.idle), closed, maxIdleConns-1)
	}
}
