package trace

import (
	"context"
	"encoding/hex"
	"net/http"
	"strings"
)

// TraceID is a 128-bit W3C trace identifier.
type TraceID struct{ hi, lo uint64 }

// IsZero reports whether the ID is the (invalid) all-zero ID.
func (id TraceID) IsZero() bool { return id.hi == 0 && id.lo == 0 }

// String renders 32 lowercase hex digits.
func (id TraceID) String() string { return string(appendHex64(appendHex64(nil, id.hi), id.lo)) }

// SpanID is a 64-bit W3C span (parent) identifier.
type SpanID uint64

// IsZero reports whether the ID is the (invalid) all-zero ID.
func (id SpanID) IsZero() bool { return id == 0 }

// String renders 16 lowercase hex digits.
func (id SpanID) String() string { return string(appendHex64(nil, uint64(id))) }

// appendHex64 appends v as 16 lowercase hex digits.
func appendHex64(dst []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>uint(shift)&0xf])
	}
	return dst
}

// Traceparent is a parsed W3C traceparent header:
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//	^version  ^trace-id (32 hex)        ^parent-id (16)  ^flags
type Traceparent struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// String renders the header value at version 00.
func (tp Traceparent) String() string { return string(tp.AppendTo(nil)) }

// AppendTo appends the header value at version 00 (55 bytes) to dst.
func (tp Traceparent) AppendTo(dst []byte) []byte {
	dst = append(dst, "00-"...)
	dst = appendHex64(appendHex64(dst, tp.TraceID.hi), tp.TraceID.lo)
	dst = append(dst, '-')
	dst = appendHex64(dst, uint64(tp.SpanID))
	if tp.Sampled {
		return append(dst, "-01"...)
	}
	return append(dst, "-00"...)
}

// Header is the canonical header name.
const Header = "traceparent"

// ParseTraceparent parses a traceparent header value per the W3C Trace
// Context spec: lowercase hex throughout, version ff invalid, all-zero
// trace or parent IDs invalid. Unknown future versions are accepted as
// long as the first four fields parse (per spec, extra fields may
// follow). Returns ok=false on any violation — a malformed header means
// "start a fresh trace", never an error to the client.
func ParseTraceparent(v string) (Traceparent, bool) {
	parts := strings.Split(v, "-")
	if len(parts) < 4 {
		return Traceparent{}, false
	}
	version, traceID, parentID, flags := parts[0], parts[1], parts[2], parts[3]
	if len(version) != 2 || !isLowerHex(version) || version == "ff" {
		return Traceparent{}, false
	}
	if version == "00" && len(parts) != 4 {
		return Traceparent{}, false
	}
	if len(traceID) != 32 || !isLowerHex(traceID) {
		return Traceparent{}, false
	}
	if len(parentID) != 16 || !isLowerHex(parentID) {
		return Traceparent{}, false
	}
	if len(flags) != 2 || !isLowerHex(flags) {
		return Traceparent{}, false
	}
	var tp Traceparent
	var buf [16]byte
	hex.Decode(buf[:], []byte(traceID)) // cannot fail: validated hex
	for i := 0; i < 8; i++ {
		tp.TraceID.hi = tp.TraceID.hi<<8 | uint64(buf[i])
		tp.TraceID.lo = tp.TraceID.lo<<8 | uint64(buf[8+i])
	}
	var pbuf [8]byte
	hex.Decode(pbuf[:], []byte(parentID))
	for i := 0; i < 8; i++ {
		tp.SpanID = tp.SpanID<<8 | SpanID(pbuf[i])
	}
	if tp.TraceID.IsZero() || tp.SpanID.IsZero() {
		return Traceparent{}, false
	}
	var fbuf [1]byte
	hex.Decode(fbuf[:], []byte(flags))
	tp.Sampled = fbuf[0]&0x01 != 0
	return tp, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// AppendTraceparent appends the traceparent value identifying the
// context's current span, so an outbound hop (router→shard) continues this
// trace. It appends nothing when the context carries no trace — or a trace
// that has since finished and been recycled for another request: a hedge
// attempt that loses its race can outlive its request, and must not stamp
// the next request's ID on its own outbound call. The trace's fields are
// read under its lock, where StartTrace writes them.
func AppendTraceparent(ctx context.Context, dst []byte) []byte {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok || v.tr == nil {
		return dst
	}
	v.tr.mu.Lock()
	if v.gen != v.tr.gen {
		v.tr.mu.Unlock()
		return dst
	}
	tp := Traceparent{TraceID: v.tr.id, SpanID: v.tr.spans[v.span].id, Sampled: v.tr.sampled}
	v.tr.mu.Unlock()
	return tp.AppendTo(dst)
}

// Inject sets AppendTraceparent's value, when there is one, as h's
// traceparent header.
func Inject(ctx context.Context, h http.Header) {
	var buf [55]byte
	if v := AppendTraceparent(ctx, buf[:0]); len(v) > 0 {
		h.Set(Header, string(v))
	}
}
