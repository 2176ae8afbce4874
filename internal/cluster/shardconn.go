package cluster

import (
	"bufio"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"clapf/internal/obs/trace"
)

// The pool's bounds, per shard.
const (
	maxIdleConns    = 64
	idleConnTimeout = 90 * time.Second
)

// shardConns is the router's HTTP/1.1 client for one shard: a LIFO pool of
// keep-alive connections and exchange, which runs a whole request on the
// goroutine that calls it.
type shardConns struct {
	addr    string         // host:port to dial
	host    string         // Host header
	prefix  string         // the base URL's path, prepended to every request path
	tlsName string         // https: the ServerName to verify; empty for http
	roots   *x509.CertPool // nil: the system's; tests plant their own

	mu   sync.Mutex
	idle []*shardConn // most recently returned last
}

type shardConn struct {
	net.Conn
	pool      *shardConns
	br        *bufio.Reader
	req       []byte // the request as last rendered, kept for its capacity
	idleSince time.Time
}

// shardAnswer is a shard's complete HTTP response, as much of it as the
// router reads.
type shardAnswer struct {
	status     int
	retryAfter string // the Retry-After header as sent
	body       []byte
}

func newShardConns(base string) (*shardConns, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("%q is not an http(s) URL", base)
	}
	p := &shardConns{addr: u.Host, host: u.Host, prefix: strings.TrimRight(u.EscapedPath(), "/")}
	port := "80"
	if u.Scheme == "https" {
		p.tlsName, port = u.Hostname(), "443"
	}
	if u.Port() == "" {
		p.addr = net.JoinHostPort(u.Hostname(), port)
	}
	return p, nil
}

// checkout takes the most recently used idle connection, closing any that
// sat past idleConnTimeout; nil when there is none.
func (p *shardConns) checkout(now time.Time) *shardConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n := len(p.idle); n > 0; n = len(p.idle) {
		c := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		if now.Sub(c.idleSince) <= idleConnTimeout {
			return c
		}
		c.Close()
	}
	return nil
}

// checkin pools c for the next exchange, or closes it when the pool is full.
func (p *shardConns) checkin(c *shardConn, now time.Time) {
	c.idleSince = now
	p.mu.Lock()
	full := len(p.idle) >= maxIdleConns
	if !full {
		p.idle = append(p.idle, c)
	}
	p.mu.Unlock()
	if full {
		c.Close()
	}
}

func (p *shardConns) dial(ctx context.Context, deadline time.Time) (*shardConn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	if p.tlsName != "" {
		// The handshake runs inside the first Write, under the exchange's
		// deadline and cancellation like the rest of it.
		nc = tls.Client(nc, &tls.Config{ServerName: p.tlsName, RootCAs: p.roots})
	}
	return &shardConn{Conn: nc, pool: p, br: bufio.NewReader(nc)}, nil
}

// exchange sends one request to the shard and reads its whole response, on
// the caller's goroutine. The attempt has until timeout from now; ctx ending
// first unblocks it at once. A pooled connection that turns out dead before
// a single response byte arrived — the shard's idle timeout closed it while
// it sat in the pool — is not the shard failing: the request is sent once
// more on a fresh connection, whatever its method (a shard's feedback ingest
// absorbs a repeated event). Only a connection whose response was read to
// its end, under keep-alive, with ctx still live, goes back to the pool.
func (p *shardConns) exchange(ctx context.Context, timeout time.Duration, method, pathQuery, contentType string, body []byte) (shardAnswer, error) {
	if err := ctx.Err(); err != nil {
		return shardAnswer{}, err
	}
	now := time.Now()
	deadline := now.Add(timeout)
	c := p.checkout(now)
	reused := c != nil
	for {
		if c == nil {
			var err error
			if c, err = p.dial(ctx, deadline); err != nil {
				return shardAnswer{}, err
			}
		}
		ans, keep, started, err := c.roundTrip(ctx, deadline, method, pathQuery, contentType, body)
		if keep {
			p.checkin(c, time.Now())
			return ans, nil
		}
		c.Close()
		var ne net.Error
		if err == nil || started || !reused || ctx.Err() != nil || (errors.As(err, &ne) && ne.Timeout()) {
			return ans, err
		}
		c, reused = nil, false
	}
}

// roundTrip is one request and its response on c, under the deadline and
// ctx's cancellation. keep reports that c may serve another exchange;
// started, that at least one byte of a response arrived.
func (c *shardConn) roundTrip(ctx context.Context, deadline time.Time, method, pathQuery, contentType string, body []byte) (ans shardAnswer, keep, started bool, err error) {
	// The deadline goes on before the cancellation hook, so a hook that
	// fires at once is not overwritten.
	if err := c.SetDeadline(deadline); err != nil {
		return ans, false, false, err
	}
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.SetDeadline(time.Unix(1, 0)) })
	}
	ans, keep, started, err = c.sendRecv(ctx, method, pathQuery, contentType, body)
	if stop != nil && !stop() {
		keep = false // the hook ran: c's deadline is in the past
	}
	if cerr := ctx.Err(); err != nil && cerr != nil {
		err = cerr // the I/O error is the hook's doing
	}
	return ans, keep, started, err
}

func (c *shardConn) sendRecv(ctx context.Context, method, pathQuery, contentType string, body []byte) (ans shardAnswer, keep, started bool, err error) {
	b := append(c.req[:0], method...)
	b = append(b, ' ')
	b = append(b, c.pool.prefix...)
	b = append(b, pathQuery...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.pool.host...)
	b = append(b, "\r\n"...)
	n := len(b)
	b = append(b, "traceparent: "...)
	if tp := trace.AppendTraceparent(ctx, b); len(tp) > len(b) {
		b = append(tp, "\r\n"...)
	} else {
		b = b[:n]
	}
	if method != http.MethodGet {
		if contentType != "" {
			b = append(b, "Content-Type: "...)
			b = append(b, contentType...)
			b = append(b, "\r\n"...)
		}
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	c.req = b
	if _, err := c.Write(b); err != nil {
		return ans, false, false, err
	}
	if _, err := c.br.Peek(1); err != nil {
		return ans, false, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return ans, false, true, err
	}
	ans.status = resp.StatusCode
	ans.retryAfter = resp.Header.Get("Retry-After")
	// A short body is io.ErrUnexpectedEOF under either read: a torn response.
	if n := resp.ContentLength; n >= 0 && n <= 1<<20 {
		ans.body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, ans.body)
	} else {
		ans.body, err = io.ReadAll(resp.Body)
	}
	if err == nil {
		err = resp.Body.Close() // reads a chunked body's trailer
	}
	if err != nil {
		return ans, false, true, err
	}
	return ans, !resp.Close && c.br.Buffered() == 0, true, nil
}
