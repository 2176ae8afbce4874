package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
)

// A shard's /recommend answer is relayed as the bytes it arrived in. What
// the router adds — its shard and degraded labels — are the last fields of
// Response, so for a body that is exactly what serve's encoder writes,
//
//	{"user":<int32>,"items":[{"item":<int32>,"score":<float64>},…]}\n
//
// ("user" absent for a cold start, every number spelled the way
// encoding/json spells it, no other byte anywhere), decoding into a
// Response, setting the labels and encoding again yields the same bytes with
// a suffix in place of the closing "}\n". scanRecommend decides whether a
// body is that; splice writes the labelled answer. A body the scanner
// declines is not an error: it takes the json.Unmarshal path, which is also
// the reference FuzzRelayRecommend holds the splice to.

// scanRecommend reports whether b is a /recommend body in serve's own
// encoding — precisely: whether decoding b into a Response and encoding
// that Response gives b back. It allocates nothing.
func scanRecommend(b []byte) bool {
	b, ok := skip(b, `{`)
	if !ok {
		return false
	}
	if rest, hasUser := skip(b, `"user":`); hasUser {
		if rest, ok = scanInt32(rest); !ok {
			return false
		}
		if b, ok = skip(rest, `,`); !ok {
			return false
		}
	}
	if b, ok = skip(b, `"items":[`); !ok {
		return false
	}
	if rest, empty := skip(b, `]`); empty {
		return string(rest) == "}\n"
	}
	for {
		if b, ok = skip(b, `{"item":`); !ok {
			return false
		}
		if b, ok = scanInt32(b); !ok {
			return false
		}
		if b, ok = skip(b, `,"score":`); !ok {
			return false
		}
		if b, ok = scanFloat64(b); !ok {
			return false
		}
		if b, ok = skip(b, `},`); !ok {
			return string(b) == "}]}\n"
		}
	}
}

// skip returns b past lit when b starts with it.
func skip(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return b, false
	}
	return b[len(lit):], true
}

// maxNumberLen bounds a float's token. encoding/json spells no float64 in
// more than 25 bytes ("-0.0000012345678901234567"), so a longer token is
// declined for its length alone — and a string conversion this short stays
// on the stack.
const maxNumberLen = 32

// numberLen returns the length of the run of bytes a JSON number can
// contain at the head of b, up to maxNumberLen. No letter but e and E is
// among them, so "NaN", "Inf" and hex floats never reach a parser.
func numberLen(b []byte) int {
	n := 0
	for n < len(b) && n < maxNumberLen {
		if c := b[n]; (c < '0' || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		n++
	}
	return n
}

// scanInt32 skips one integer as encoding/json writes an int32: an optional
// minus, no leading zero, no "-0", in range. (Parsing and formatting again,
// as scanFloat64 does, holds the same and costs half as much again per
// body: eleven of these to ten scores.)
func scanInt32(b []byte) ([]byte, bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	start := i
	var v int64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' && i-start < 10 {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	n := i - start
	if n == 0 || (b[start] == '0' && (n > 1 || start == 1)) {
		return b, false
	}
	if i < len(b) && b[i] >= '0' && b[i] <= '9' { // an eleventh digit
		return b, false
	}
	if start == 1 {
		v = -v
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return b, false
	}
	return b[i:], true
}

// scanFloat64 skips one number that is spelled exactly as encoding/json
// spells the float64 it parses to — the only spelling a decode and
// re-encode would leave alone. That rules out 1.50, 1E5, 1e5 and a digit
// string longer than the shortest that round-trips, and with them anything
// ParseFloat refuses (1e999).
func scanFloat64(b []byte) ([]byte, bool) {
	n := numberLen(b)
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	var buf [maxNumberLen]byte
	if err != nil || string(appendJSONFloat(buf[:0], f)) != string(b[:n]) {
		return b, false
	}
	return b[n:], true
}

// appendJSONFloat appends finite f as encoding/json's float64 encoder does:
// the shortest digits that round-trip, exponent form only below 1e-6 and
// from 1e21, and a two-digit exponent's leading zero dropped (e-09 → e-9).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// answersUser reports whether body, which scanRecommend has accepted,
// answers for user u. Only such a body is kept as u's stale copy: the stale
// rung serves it under the user the request named.
func answersUser(body []byte, u int32) bool {
	var buf [24]byte
	rest, ok := skip(body, string(strconv.AppendInt(append(buf[:0], `{"user":`...), int64(u), 10)))
	return ok && rest[0] == ','
}

// labelSuffix is what replaces the closing "}\n" of a shard's body to make
// it the Response with these labels. Response's own encoder writes them, so
// their order, omission and escaping are its.
func labelSuffix(degraded, shard string) []byte {
	b, _ := json.Marshal(Response{Degraded: degraded, Shard: shard}) // strings always encode
	return append(b[len(`{"items":null`):], '\n')
}

// splice writes body, a JSON object ending "}\n", with suffix in place of
// those two bytes, as a 200. body is shared with the stale cache and is not
// written to.
func splice(w http.ResponseWriter, body, suffix []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A failed write is the client hanging up.
	_, _ = w.Write(body[:len(body)-2])
	_, _ = w.Write(suffix)
}
