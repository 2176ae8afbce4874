package trace

import (
	"context"
	"net/http"
	"testing"

	"clapf/internal/obs"
)

func TestParseTraceparentValid(t *testing.T) {
	tp, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if got := tp.TraceID.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID = %s", got)
	}
	if got := tp.SpanID.String(); got != "00f067aa0ba902b7" {
		t.Errorf("span ID = %s", got)
	}
	if !tp.Sampled {
		t.Error("sampled flag lost")
	}

	// Flags 00: valid but unsampled.
	tp, ok = ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if !ok || tp.Sampled {
		t.Errorf("unsampled parse = (%v, %v), want (unsampled, true)", tp.Sampled, ok)
	}

	// A future version with extra fields must still parse (W3C forward
	// compatibility).
	if _, ok := ParseTraceparent("42-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future version with trailing field rejected")
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // version 00 with 5 fields
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // version ff forbidden
		"0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",    // short version
		"00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01",    // 31-char trace ID
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // all-zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // all-zero span ID
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",   // bad flags hex
		"00-4bf92f3577b34da6a3ce929dxe0e4736-00f067aa0ba902b7-01",   // non-hex trace ID
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want rejected", v)
		}
	}
}

func TestTraceparentStringRoundTrip(t *testing.T) {
	const in = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tp, ok := ParseTraceparent(in)
	if !ok {
		t.Fatal("parse failed")
	}
	if got := tp.String(); got != in {
		t.Errorf("round trip = %q, want %q", got, in)
	}
	tp.Sampled = false
	if got := tp.String(); got != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00" {
		t.Errorf("unsampled render = %q", got)
	}
}

func TestInject(t *testing.T) {
	tr := New(obs.NewRegistry(), "t_", Config{SampleRate: 1})
	ctx, trace := tr.StartTrace(context.Background(), "root")
	h := make(http.Header)
	Inject(ctx, h)
	tp, ok := ParseTraceparent(h.Get(Header))
	if !ok {
		t.Fatalf("injected header %q does not parse", h.Get(Header))
	}
	if tp.TraceID != trace.ID() {
		t.Errorf("injected trace ID %s != trace %s", tp.TraceID, trace.ID())
	}

	// A child span's context must inject the child's span ID, keeping the
	// same trace ID.
	cctx, sp := StartSpan(ctx, "child")
	h2 := make(http.Header)
	Inject(cctx, h2)
	tp2, ok := ParseTraceparent(h2.Get(Header))
	if !ok {
		t.Fatal("child inject does not parse")
	}
	if tp2.TraceID != trace.ID() {
		t.Error("child inject changed trace ID")
	}
	if tp2.SpanID == tp.SpanID {
		t.Error("child inject reused the root span ID")
	}
	sp.End()

	// No trace in context: nothing written.
	h3 := make(http.Header)
	Inject(context.Background(), h3)
	if h3.Get(Header) != "" {
		t.Errorf("inject on untraced context wrote %q", h3.Get(Header))
	}
}

// TestInjectFromHedgeOutlivingRequest holds a hedge attempt open past its
// request: the attempt's goroutine keeps injecting from its span context
// while the request finishes and the pooled Trace is handed to later
// requests. Every header it writes must carry its own request's trace ID,
// and once the Trace has been reused it must write nothing — under -race
// this is also the proof that Inject and StartTrace synchronize.
func TestInjectFromHedgeOutlivingRequest(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: 1})
	ctx, req := tr.StartTrace(context.Background(), "req")
	hedgeCtx, _ := StartSpan(ctx, "shard:b")
	want := req.ID()

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := make(http.Header)
			Inject(hedgeCtx, h)
			v := h.Get(Header)
			if v == "" {
				continue
			}
			if tp, ok := ParseTraceparent(v); !ok || tp.TraceID != want {
				t.Errorf("hedge injected %q, want trace %s or nothing", v, want)
				return
			}
		}
	}()

	req.Finish(200, 0)
	reused := false
	for i := 0; i < 100000 && !reused; i++ {
		_, next := tr.StartTrace(context.Background(), "next")
		reused = next == req
		next.Finish(200, 0)
	}
	close(stop)
	<-done
	if !reused {
		t.Skip("the pool never handed the finished trace to a later request")
	}
	h := make(http.Header)
	Inject(hedgeCtx, h)
	if v := h.Get(Header); v != "" {
		t.Errorf("inject from a recycled trace wrote %q, want nothing", v)
	}
}
