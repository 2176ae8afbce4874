package mf

import (
	"fmt"
	"math"
	"math/bits"

	"clapf/internal/mathx"
	"clapf/internal/rank"
)

// Params is the read-only scoring surface the serving stack works against:
// rows (UserVector, ItemVector, Bias) and one item scan (ScoreRangeFoldIn).
// Three types implement it: *Model (the float64 training representation),
// *Factors32 (the half-width serving representation produced at export
// time) and *Overlay (either of them with some user rows replaced by
// streaming feedback). Everything downstream of training — the blocked
// scoring engine, the IVF index builder, fold-in, similar-items, and the
// HTTP server's liveState — is generic over this interface, so a server
// can page in a float32 store without the rest of the stack knowing.
//
// All scores are float64: float32 implementations widen each element and
// accumulate in float64 (see internal/mathx), which keeps rankings
// bit-identical to scoring the widened copy with the float64 kernels.
type Params interface {
	NumUsers() int
	NumItems() int
	Dim() int
	HasBias() bool

	// Bias returns b_i, or 0 when the model has no bias term.
	Bias(i int32) float64

	// ScoreRangeFoldIn is the representation's one item scan: it fills
	// one tile — len(out) == hi-lo, out[j] is item lo+j — with
	// f_i = userFactors · V_i + b_i, the same bits whatever the tiling.
	// A stored user is scored under UserVector(u); a cold-start or
	// overlaid user under its folded-in vector. score.Engine tiles full
	// rows and blocked batches through it; its fused top-K reads the rows
	// (Items) and runs the same kernel over the rows that can place.
	ScoreRangeFoldIn(userFactors []float64, lo, hi int, out []float64)

	// UserVector returns U_u as float64, reusing dst when it has
	// capacity. Implementations may return internal storage (the model
	// does); callers must not mutate the result.
	UserVector(u int32, dst []float64) []float64

	// ItemVector returns V_i as float64 under the same contract as
	// UserVector.
	ItemVector(i int32, dst []float64) []float64

	// CountNonFinite reports NaN/±Inf entries in (U, V, b) — the
	// serve-side validation gate.
	CountNonFinite() (u, v, b int)

	// ElemBytes is the storage width of one factor (8 for float64, 4 for
	// float32); the blocked engine sizes its cache tiles with it.
	ElemBytes() int

	// ParamBytes is the total size of the parameter arrays in bytes —
	// the serving-memory footprint the benchmarks report.
	ParamBytes() int64
}

// Compile-time interface checks.
var (
	_ Params = (*Model)(nil)
	_ Params = (*Factors32)(nil)
	_ Params = (*Overlay)(nil)
)

// ItemRows is a parameter set's item half as the flat row-major slices the
// internal/mathx kernels take: exactly one of V64 and V32 is non-nil, and
// the bias slice beside it is nil on a bias-free model.
type ItemRows struct {
	V64, B64 []float64
	V32, B32 []float32
}

// Items returns p's item rows: a *Model's or a *Factors32's own storage
// (or that of the one a type embeds), and an *Overlay's base's, since an
// overlay replaces user rows only. The slices are read-only to the caller.
// It is how a scan that takes rows rather than the Params interface — the
// fused top-K's bound filter and its rescoring of the rows that pass it —
// reaches them without a copy.
func Items(p Params) ItemRows {
	switch p := p.(type) {
	case *Overlay:
		return Items(p.Params)
	case interface{ RawParams() (u, v, b []float64) }:
		_, v, b := p.RawParams()
		return ItemRows{V64: v, B64: b}
	case interface{ RawParams32() (u, v, b []float32) }:
		_, v, b := p.RawParams32()
		return ItemRows{V32: v, B32: b}
	}
	panic(fmt.Sprintf("mf: no item rows for a %T", p))
}

// Scan writes the scores of rows [lo, hi) under uf into out with the kernel
// the parameter set's ScoreRangeFoldIn runs: mathx.ScanF64 over float64
// rows, mathx.ScanF64F32 over float32 ones.
func (r ItemRows) Scan(uf []float64, lo, hi int, out []float64) {
	d := len(uf)
	if r.V32 != nil {
		var b []float32
		if r.B32 != nil {
			b = r.B32[lo:hi]
		}
		mathx.ScanF64F32(uf, r.V32[lo*d:hi*d], b, out)
		return
	}
	var b []float64
	if r.B64 != nil {
		b = r.B64[lo:hi]
	}
	mathx.ScanF64(uf, r.V64[lo*d:hi*d], b, out)
}

// Bound is the bound filter over r's rows, d a row (mathx.Bound): the one
// place the filter picks the image's source width.
func (r ItemRows) Bound(d int) *mathx.Bound {
	if r.V32 != nil {
		return mathx.BoundOverF32(r.V32, r.B32, d)
	}
	return mathx.BoundOverF64(r.V64, r.B64, d)
}

// SweepTile is the longest span one bound scan covers: 512 scores are 4 KB,
// which stays in L1 between the kernel writing them and the selector
// reading them. Tests that plant rows across a tile edge read it.
const SweepTile = 512

// Sweep is the fused top-K's one filter-and-rescore loop: one query's
// scratch over the rows of an ItemRows — its bound image, a tile of scores,
// the tile's survivor mask and the gathered rows, about 8 KB. It is meant
// to live in the caller's frame and holds no pointer into itself, so a
// query allocates nothing here while d ≤ 512. The exact scan
// (score.Engine) offers it the whole catalog, the IVF re-rank
// (retrieval.Index) each probed cell.
type Sweep struct {
	rows  ItemRows
	bound *mathx.Bound
	uf    []float64
	delta float32 // the scale of uf's bound image
	tol   float64 // E(uf): how far a bound score may be from the exact one
	pbuf  [512]int8
	pheap []int8 // the image, when it outgrows pbuf
	tile  [SweepTile]float64
	mask  [SweepTile/64 + 2]uint64
	g     gatherBuf
}

// Start readies s for the query uf over rows, filtered by bound, rows' own
// Bound; a nil bound filters nothing, and every row is scored exactly.
func (s *Sweep) Start(rows ItemRows, bound *mathx.Bound, uf []float64) {
	s.rows, s.bound, s.uf = rows, bound, uf
	if bound != nil {
		s.delta, s.tol = bound.Query(uf, s.image())
	}
}

// image is uf's bound image: pbuf's first Stride() bytes, or past those a
// slice of its own.
func (s *Sweep) image() []int8 {
	n := s.bound.Stride()
	if n <= len(s.pbuf) {
		return s.pbuf[:n]
	}
	if len(s.pheap) != n {
		s.pheap = make([]int8, n)
	}
	return s.pheap
}

// Offer offers rows [lo, hi) to sel, a tile of up to 512 rows at a time,
// row j as the item ids[j] (ids == nil: row j is item j). While sel is not
// full (its floor is −Inf), or s has no bound, a tile is scored exactly
// and offered whole. After that the bound scan answers the floor test for
// the tile against the floor minus E as the tile starts, one mask bit a
// row — set when the row's bound score is not a finite value below it —
// and the rows it sets are rescored exactly together, up to 16 rows of 16
// a kernel call, and offered to sel, which rejects those the risen floor
// has passed. A row the mask leaves out scores below the floor, where
// sel.Offer would ignore it, so sel ends as an exact scan of every row
// would leave it.
func (s *Sweep) Offer(sel *rank.Selector, lo, hi int, ids []int32) {
	for ; lo < hi; lo += SweepTile {
		end := min(lo+SweepTile, hi)
		floor := sel.Floor()
		if s.bound == nil || math.IsInf(floor, -1) {
			tile := s.tile[:end-lo]
			s.rows.Scan(s.uf, lo, end, tile)
			if ids == nil {
				sel.OfferRun(int32(lo), tile)
			} else {
				sel.OfferIDs(ids[lo:end], tile)
			}
			continue
		}
		mask := s.bound.Scan(s.image(), s.delta, floor-s.tol, lo, end, s.mask[:])
		for {
			rows, scores := s.rows.scanMasked(s.uf, lo, mask, &s.g, s.tile[:])
			if len(rows) == 0 {
				break
			}
			if ids != nil {
				for j, r := range rows {
					rows[j] = ids[r]
				}
			}
			sel.OfferIDs(rows, scores)
		}
	}
}

// gatherBuf is scanMasked's scratch: room for the rows a call copies
// together, at either width — 3.5 KB, zeroed once a query with the Sweep
// that holds it.
type gatherBuf struct {
	rows [gatherRows]int32
	v64  [gatherElems]float64
	b64  [gatherRows]float64
	v32  [gatherElems]float32
	b32  [gatherRows]float32
}

// gatherRows and gatherElems bound one scanMasked call: at most 32 rows and
// 256 elements, 16 rows of 16. A tile of the served catalog lets one or two
// rows through; a longer mask takes more calls.
const gatherRows, gatherElems = 32, 256

// scanMasked scores under uf the rows lo+j for the set bits j of mask — bit
// j%64 of mask[j/64] — and returns their row numbers, ascending, and their
// scores in out, the bits Scan gives each row. It takes as many rows as g
// holds, clears their bits and leaves the rest for the next call: a caller
// loops until it returns no rows. The rows are copied together into g
// first (a lone row is scanned where it is), so one kernel call scores
// them all; the row numbers are g's, valid until its next use.
func (r ItemRows) scanMasked(uf []float64, lo int, mask []uint64, g *gatherBuf, out []float64) ([]int32, []float64) {
	d := len(uf)
	most := max(1, min(gatherRows, gatherElems/max(d, 1)))
	rows := g.rows[:0]
	for w := range mask {
		for ; mask[w] != 0 && len(rows) < most; mask[w] &= mask[w] - 1 {
			rows = append(rows, int32(lo+w*64+bits.TrailingZeros64(mask[w])))
		}
	}
	scores := out[:len(rows)]
	if len(rows) == 0 {
		return rows, scores
	}
	if r.V32 != nil {
		v, b := gather(r.V32, r.B32, rows, d, g.v32[:], g.b32[:])
		mathx.ScanF64F32(uf, v, b, scores)
	} else {
		v, b := gather(r.V64, r.B64, rows, d, g.v64[:], g.b64[:])
		mathx.ScanF64(uf, v, b, scores)
	}
	return rows, scores
}

// gather returns the given rows of v, d wide, and their biases (nil when b
// is nil) as one block: a lone row where it lies, more copied into gv and
// gb.
func gather[T float32 | float64](v, b []T, rows []int32, d int, gv, gb []T) ([]T, []T) {
	if len(rows) == 1 {
		i := int(rows[0])
		if b != nil {
			b = b[i : i+1]
		}
		return v[i*d : (i+1)*d], b
	}
	gv, gb = gv[:len(rows)*d], gb[:len(rows)]
	for j, i := range rows {
		copy(gv[j*d:(j+1)*d], v[int(i)*d:])
		if b != nil {
			gb[j] = b[i]
		}
	}
	if b == nil {
		gb = nil
	}
	return gv, gb
}

// UserVector returns U_u. The model stores float64 natively, so this is the
// live row; dst is ignored.
func (m *Model) UserVector(u int32, dst []float64) []float64 { return m.UserFactors(u) }

// ItemVector returns V_i, the live float64 row; dst is ignored.
func (m *Model) ItemVector(i int32, dst []float64) []float64 { return m.ItemFactors(i) }

// ElemBytes reports the model's 8-byte float64 storage width.
func (m *Model) ElemBytes() int { return 8 }

// ParamBytes returns the total parameter footprint in bytes.
func (m *Model) ParamBytes() int64 {
	return 8 * int64(len(m.u)+len(m.v)+len(m.b))
}
