package retrieval

import (
	"encoding/binary"
	"math"
	"testing"

	"clapf/internal/mf"
)

// FuzzIVFBuild throws adversarial factor matrices at index construction:
// the fuzzer controls item count, dimensionality, cell count, and a byte
// stream interpreted as float64 item parameters (so NaN, ±Inf, subnormals,
// zero rows, and duplicates all occur naturally). BuildIVF must never
// panic; whatever it builds must satisfy the structural invariants — an
// exhaustive partition, in-range sorted candidates, and a full-width
// Search that only ever drops the non-finite rows — and must build the
// same bits with the assignment sweep fanned over four workers as on one
// (catalogs run to 600 items, a little over two of kmeans' 256-point
// chunks, so the fan-out is real).
func FuzzIVFBuild(f *testing.F) {
	// Seed corpus: the interesting shapes called out in the issue.
	f.Add(5, 3, 2, encodeFloats(make([]float64, 5*4)))                                         // all-zero rows
	f.Add(4, 2, 9, encodeFloats([]float64{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3}))                // duplicates, k > items
	f.Add(3, 2, 1, encodeFloats([]float64{math.NaN(), 1, 2, math.Inf(1), 0.5, -0.5, 1, 1, 1})) // poisoned rows
	f.Add(1, 1, 1, encodeFloats([]float64{42, 42}))                                            // single item
	f.Add(8, 4, 3, []byte{})                                                                   // no bytes: zero params
	f.Add(520, 2, 7, encodeFloats([]float64{1, 2, 3, 1, 2, 3, math.Inf(-1), 4}))               // three chunks, mostly zero rows

	f.Fuzz(func(t *testing.T, numItems, dim, nlist int, raw []byte) {
		if numItems < 1 || numItems > 600 || dim < 1 || dim > 8 || nlist < -2 || nlist > 128 {
			return
		}
		params := decodeFloats(raw, numItems*(dim+1))
		v := params[:numItems*dim]
		b := params[numItems*dim:]
		m, err := mf.FromRaw(mf.Config{
			NumUsers: 2, NumItems: numItems, Dim: dim, UseBias: true,
		}, make([]float64, 2*dim), v, b)
		if err != nil {
			t.Fatalf("FromRaw: %v", err)
		}
		// A mildly interesting query vector; content is irrelevant to the
		// invariants below.
		copy(m.UserFactors(0), v[:dim])

		ix := buildAt(t, 1, m, Config{NLists: nlist, Iters: 4})
		if ix.NLists() < 1 || ix.NLists() > numItems {
			t.Fatalf("NLists = %d for %d items", ix.NLists(), numItems)
		}
		if d := indexDiff(ix, buildAt(t, 4, m, Config{NLists: nlist, Iters: 4})); d != "" {
			t.Fatalf("%s differs between a build at GOMAXPROCS 1 and one at 4", d)
		}

		// Full-width probe must enumerate the catalog exactly once,
		// ascending, whatever the parameter values were.
		cands := ix.Probe(m.UserFactors(0), ix.NLists())
		if len(cands) != numItems {
			t.Fatalf("full probe: %d candidates for %d items", len(cands), numItems)
		}
		for i, id := range cands {
			if int(id) != i {
				t.Fatalf("full probe candidate %d = %d, want %d", i, id, i)
			}
		}

		// Count rows a dense scorer would drop for user 0, then check
		// Search agrees at full width.
		uf := m.UserFactors(0)
		wantDropped := 0
		for i := 0; i < numItems; i++ {
			s := 0.0
			for j := 0; j < dim; j++ {
				s += uf[j] * v[i*dim+j]
			}
			s += b[i]
			if math.IsNaN(s) || math.IsInf(s, 0) {
				wantDropped++
			}
		}
		top, dropped := ix.Search(uf, numItems, ix.NLists(), nil)
		if dropped != wantDropped {
			t.Fatalf("full-width Search dropped %d, dense scoring drops %d", dropped, wantDropped)
		}
		if len(top)+dropped != numItems {
			t.Fatalf("full-width Search returned %d entries + %d dropped for %d items", len(top), dropped, numItems)
		}
		for r, e := range top {
			if e.Item < 0 || int(e.Item) >= numItems {
				t.Fatalf("entry %d: invalid item %d", r, e.Item)
			}
			if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
				t.Fatalf("entry %d: non-finite score %v leaked through", r, e.Score)
			}
			if r > 0 && (top[r-1].Score < e.Score ||
				(top[r-1].Score == e.Score && top[r-1].Item >= e.Item)) {
				t.Fatalf("entries out of order at %d: %+v then %+v", r, top[r-1], e)
			}
		}
	})
}

func encodeFloats(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// decodeFloats reads n float64s from raw, zero-padding when raw is short —
// the fuzzer mutates lengths freely and every length must map to a valid
// parameter matrix.
func decodeFloats(raw []byte, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n && 8*i+8 <= len(raw); i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}
