package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clapf/internal/mathx"
)

// opTimeout bounds one client operation; an operation that hits it failed.
const opTimeout = 5 * time.Second

// client is one keep-alive HTTP/1.1 connection driven synchronously by one
// goroutine. net/http's Transport would add two goroutines and two channel
// hand-offs per request; on a box where the generator shares two cores
// with the servers that is a measurable part of a 40 µs request, and it is
// scheduler noise rather than the system under test.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(baseURL string) (*client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, err
	}
	c := &client{addr: u.Host}
	return c, c.redial()
}

func (c *client) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.DialTimeout("tcp", c.addr, opTimeout)
	if err != nil {
		return fmt.Errorf("dialing %s: %w", c.addr, err)
	}
	c.conn, c.br = conn, bufio.NewReaderSize(conn, 32<<10)
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// do sends one pre-rendered request and reads the whole response. The
// returned body is valid until the next call. After a transport error the
// connection is replaced so one failure does not fail every later
// operation.
func (c *client) do(wire []byte) (status int, body []byte, err error) {
	if err = c.conn.SetDeadline(time.Now().Add(opTimeout)); err == nil {
		_, err = c.conn.Write(wire)
	}
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.br, nil)
	}
	if err == nil {
		c.body.Reset()
		_, err = io.Copy(&c.body, resp.Body)
		resp.Body.Close()
	}
	if err != nil {
		if rerr := c.redial(); rerr != nil {
			err = fmt.Errorf("%w (and %v)", err, rerr)
		}
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// request is one generated operation, rendered to wire bytes when the
// stream is built so the timed loop only writes and reads. check, when
// set, judges the response; the default is "any 2xx".
type request struct {
	wire  []byte
	check func(status int, body []byte) bool
}

func get(pathQuery string) request {
	return request{wire: []byte("GET " + pathQuery + " HTTP/1.1\r\nHost: bench\r\n\r\n")}
}

func post(path string, body []byte) request {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	return request{wire: append([]byte(head), body...)}
}

func (c *client) run(r *request) bool {
	status, body, err := c.do(r.wire)
	if err != nil {
		return false
	}
	if r.check != nil {
		return r.check(status, body)
	}
	return status >= 200 && status < 300
}

// phaseResult is what one timed window observed, or several windows of
// the same kind joined into one phase.
type phaseResult struct {
	name     string
	span     float64   // seconds, all windows together
	ops      []timed   // open loop: at = due time, lat from due time; closed loop: at = completion
	parts    [][]timed // the slices a metric is computed over; nil until join or slicesOf
	partSpan []float64 // seconds each slice covers
	lateness []float64 // open loop only: ms the generator itself sent late
	sent     int
	failed   int
}

// join makes one phase of the rounds' windows, each cut into its slices.
func join(name string, windows []phaseResult) phaseResult {
	out := phaseResult{name: name}
	for _, w := range windows {
		out.span += w.span
		out.ops = append(out.ops, w.ops...)
		out.parts = append(out.parts, w.slicesOf()...)
		out.partSpan = append(out.partSpan, w.partSpan...)
		out.lateness = append(out.lateness, w.lateness...)
		out.sent += w.sent
		out.failed += w.failed
	}
	return out
}

func (p *phaseResult) ok() int { return p.sent - p.failed }

// slicesOf returns the phase's slices: those of its windows when it was
// joined from rounds, else the one contiguous window cut into equal parts.
func (p *phaseResult) slicesOf() [][]timed {
	if p.parts == nil {
		n := sliceCount(len(p.ops), p.span)
		p.parts = cut(p.ops, p.span, n)
		for range p.parts {
			p.partSpan = append(p.partSpan, p.span/float64(n))
		}
	}
	return p.parts
}

func (p *phaseResult) p(q float64) float64 { return slicedPercentile(p.slicesOf(), q) }

// rate is completions per second: per slice, then combined.
func (p *phaseResult) rate() float64 {
	parts := p.slicesOf()
	per := make([]float64, len(parts))
	for i, part := range parts {
		for _, o := range part {
			if !math.IsInf(o.lat, 1) {
				per[i]++
			}
		}
		per[i] /= p.partSpan[i]
	}
	return best(per, false)
}

func (p *phaseResult) latenessP99() float64 {
	if len(p.lateness) == 0 {
		return 0
	}
	s := append([]float64(nil), p.lateness...)
	sort.Float64s(s)
	return percentile(s, 0.99)
}

// waitUntil spins until t; it sleeps first only when t is further away
// than any of the frozen rates puts it. Sleeping is what a load generator
// would normally do, and on the reference box it cannot: a sleep overshoots
// by a full millisecond (the kernel's timer granularity there), and, worse,
// a core that went idle takes so long to wake that every goroutine hand-off
// behind it slows down — routed reads measured 0.26 ms at the median with a
// sleeping writer beside them and 0.13 ms with a spinning one. A client
// that is waiting to send has no request in flight, so the core it holds
// is not one the server needs on its behalf; the other clients' requests
// run on the cores their own blocked reads gave up. Yielding in the loop
// (runtime.Gosched) was measured too and is worse than either: the
// yielding goroutine itself comes back up to 4 ms late a few times in a
// hundred.
func waitUntil(t time.Time) {
	const sleepBeyond = 20 * time.Millisecond
	if d := time.Until(t); d > 2*sleepBeyond {
		time.Sleep(d - sleepBeyond)
	}
	for time.Until(t) > 0 {
	}
}

// openLoop sends reqs[i] at start + i/rate on whichever of the clients is
// free, timing each from the moment it was due (less the generator's own
// lateness), so a stall is charged to every request that had to wait
// behind it. The schedule is fixed before
// the first request; the rate never adapts. When the system falls more
// than opTimeout behind, the requests still queued are counted as failed
// rather than sent, which bounds the run.
func openLoop(name string, clients []*client, reqs []request, rate float64) phaseResult {
	n := len(reqs)
	interval := time.Duration(float64(time.Second) / rate)
	span := time.Duration(n) * interval
	ops := make([]timed, n)
	late := make([]float64, n)
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			free := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				sent := time.Now()
				ok := sent.Sub(due) < opTimeout && c.run(&reqs[i])
				done := time.Now()
				// ready is when this request could first have gone out: when
				// it was due, or later if every connection was still busy.
				// Waiting for a connection is the system's doing and stays
				// in the latency. Whatever passed between ready and the
				// actual send is the generator's own lateness (it shares the
				// cores with the servers): reported, not charged.
				ready := due
				if free.After(ready) {
					ready = free
				}
				own := sent.Sub(ready)
				lat := float64(done.Sub(due)-own) / float64(time.Millisecond)
				if !ok {
					lat = math.Inf(1)
					failed.Add(1)
				}
				ops[i] = timed{at: due.Sub(start).Seconds(), lat: lat}
				late[i] = float64(own) / float64(time.Millisecond)
				free = done
			}
		}(c)
	}
	wg.Wait()
	return phaseResult{name: name, span: span.Seconds(), ops: ops, lateness: late, sent: n, failed: int(failed.Load())}
}

// closedLoop has every client send back to back for the window, each
// cycling through its own share of reqs: the saturated-throughput view.
func closedLoop(name string, clients []*client, reqs []request, window time.Duration) phaseResult {
	per := make([][]timed, len(clients))
	fails := make([]int, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for w, c := range clients {
		wg.Add(1)
		go func(w int, c *client) {
			defer wg.Done()
			for i := w; ; i += len(clients) {
				t0 := time.Now()
				if t0.Sub(start) >= window {
					return
				}
				ok := c.run(&reqs[i%len(reqs)])
				t1 := time.Now()
				lat := float64(t1.Sub(t0)) / float64(time.Millisecond)
				if !ok {
					lat = math.Inf(1)
					fails[w]++
				}
				per[w] = append(per[w], timed{at: t1.Sub(start).Seconds(), lat: lat})
			}
		}(w, c)
	}
	wg.Wait()
	res := phaseResult{name: name, span: window.Seconds()}
	for w := range per {
		res.ops = append(res.ops, per[w]...)
		res.failed += fails[w]
	}
	res.sent = len(res.ops)
	return res
}

// userStream draws user ids for a request stream. The same seed gives
// the same stream; zipf == 0 draws uniformly, otherwise rank r of a
// seed-shuffled user order is drawn with probability ∝ r^-zipf.
type userStream struct {
	rng   *mathx.RNG
	users int
	order []int     // rank -> user id
	cdf   []float64 // cumulative rank probabilities
}

func newUserStream(seed uint64, users int, zipf float64) *userStream {
	s := &userStream{rng: mathx.NewRNG(seed), users: users}
	if zipf > 0 {
		s.order = s.rng.Perm(users)
		s.cdf = make([]float64, users)
		var sum float64
		for r := range s.cdf {
			sum += math.Pow(float64(r+1), -zipf)
			s.cdf[r] = sum
		}
		for r := range s.cdf {
			s.cdf[r] /= sum
		}
	}
	return s
}

func (s *userStream) next() int32 {
	if s.cdf == nil {
		return int32(s.rng.Intn(s.users))
	}
	r := sort.SearchFloat64s(s.cdf, s.rng.Float64())
	if r >= s.users {
		r = s.users - 1
	}
	return int32(s.order[r])
}

func (s *userStream) take(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func recommendPath(u int32) string {
	return "/recommend?user=" + strconv.Itoa(int(u)) + "&k=" + strconv.Itoa(topK)
}

func recommendRequests(users []int32) []request {
	reqs := make([]request, len(users))
	for i, u := range users {
		reqs[i] = get(recommendPath(u))
	}
	return reqs
}
