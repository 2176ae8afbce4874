// Package score is the shared dense scoring engine behind every serve and
// evaluation surface in the repository. All of them bottleneck on the same
// kernel — for a user u, score every item:
//
//	scores = U_u · Vᵀ + b
//
// costing O(m·d) per user. Scoring users one at a time streams the whole
// item-factor matrix V through the cache hierarchy once per user; scoring a
// batch with the item loop *outside* the user loop keeps each block of V
// hot across the entire batch, so V is effectively read once per batch
// block instead of once per user. Engine packages that blocked kernel in
// two forms. ScoreUsers materialises full score rows, for callers that
// read every score (the benchmark harness's batch timings). TopK,
// TopKFoldIn and TopKUsers are the serve path's exact retrieval: one
// streaming pass that scores a small tile of items and offers each score
// straight to a rank.Selector, so a request that keeps ten items never
// allocates, writes or re-reads a NumItems-sized row.
//
// ScoreUsers tiles through mf.Params.ScoreRangeFoldIn — a parameter set's
// one item scan, tile-relative (the output has length hi-lo) — under
// UserVector(u), handing it a window of each row. The fused scan reads the
// item rows themselves (mf.Items) and runs in two kernels: a bound scan of
// the tile over an int8 image of the rows (mathx.BoundI8), which answers
// the floor test itself with one mask bit a row, and, for the few rows
// whose bound can reach the selector's floor, the representation's exact
// kernel over those rows gathered together (mathx.ScanF64 or ScanF64F32,
// what ScoreRangeFoldIn runs). An engine's first sweep has no image yet
// and, like every sweep while the selector is not full, runs the exact
// kernel over every row of the tile. Every
// score any method returns is bit-identical to mf.Model.ScoreAll's — the
// per-item dot products are the same operations in the same order, and a
// row the bound skips provably scores below the floor — so swapping the
// engine into a ranking path can never change a result, only its cost.
package score

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
)

// blockBytes is the target footprint of one item-factor block. 32 KiB
// keeps a block resident in L1d on anything modern while leaving room for
// the batch's user factors and output rows.
const blockBytes = 32 << 10

// minBlockItems bounds the block size from below so tiny dimensionalities
// don't degenerate into per-item loop overhead.
const minBlockItems = 16

// tileItems is the fused scan's tile: 512 scores are 4 KB, which stays in
// L1 between the kernel writing them and the selector reading them.
const tileItems = 512

// Engine scores users against one immutable parameter set — a float64
// mf.Model, a float32 mf.Factors32 or an overlay of either; the blocked
// kernel is generic over mf.Params. It is safe for concurrent use and
// cheap to construct — the serve path builds a fresh Engine on every model
// swap, and clapf.Recommend one a call. Its one piece of state is the fused
// scan's bound, an int8 image of the item rows (4·⌈d/4⌉ + 4 bytes an
// item), built on its second top-K sweep: the first scores every row
// exactly, so an engine that answers once never pays for the image.
type Engine struct {
	m     mf.Params
	block int         // items per ScoreUsers tile
	rows  mf.ItemRows // m's item half, for the fused scan's kernels

	swept     atomic.Bool // a sweep has started: the next one builds the bound
	boundOnce sync.Once
	bound     *mathx.Bound
}

// Option configures an Engine.
type Option func(*Engine)

// WithBlockItems overrides the tile size of the blocked kernel (mainly for
// tests that want to force block-boundary coverage). n < 1 keeps the
// default.
func WithBlockItems(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.block = n
		}
	}
}

// NewEngine builds an engine over any parameter set. The default block
// size targets blockBytes of item factors per tile — sized by the
// representation's element width, so a float32 model fits twice the items
// per tile.
func NewEngine(m mf.Params, opts ...Option) *Engine {
	e := &Engine{
		m:     m,
		block: blockBytes / (m.ElemBytes() * m.Dim()),
		rows:  mf.Items(m),
	}
	if e.block < minBlockItems {
		e.block = minBlockItems
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Params returns the wrapped parameter set.
func (e *Engine) Params() mf.Params { return e.m }

// ScoreAll fills out, which must have length NumItems, with every item's
// score for user u — the single-user path, satisfying eval.Scorer: one
// untiled scan under UserVector(u).
func (e *Engine) ScoreAll(u int32, out []float64) {
	e.m.ScoreRangeFoldIn(e.m.UserVector(u, nil), 0, e.m.NumItems(), out)
}

// ScoreUsers fills out[i] with the full score row for users[i] using the
// sequential blocked kernel: the item dimension is tiled so each tile of V
// stays cache-resident across the whole batch. len(out) must be at least
// len(users) and every row must have length NumItems.
func (e *Engine) ScoreUsers(users []int32, out [][]float64) {
	if len(out) < len(users) {
		panic(fmt.Sprintf("score: %d output rows for %d users", len(out), len(users)))
	}
	m := e.m.NumItems()
	for ui := range users {
		if len(out[ui]) != m {
			panic(fmt.Sprintf("score: output row %d has length %d, want %d", ui, len(out[ui]), m))
		}
	}
	// One user vector per user, not per (tile × user): a float32 model
	// allocates to widen its row.
	ufs := make([][]float64, len(users))
	for ui, u := range users {
		ufs[ui] = e.m.UserVector(u, nil)
	}
	for lo := 0; lo < m; lo += e.block {
		hi := lo + e.block
		if hi > m {
			hi = m
		}
		for ui, uf := range ufs {
			e.m.ScoreRangeFoldIn(uf, lo, hi, out[ui][lo:hi])
		}
	}
}

// TopK returns user u's k best items outside excludeSorted (an ascending
// id list, nil for none), best first, and how many scores were dropped for
// being non-finite: entries and count are bit-identical to
// rank.TopKDropped over ScoreAll(u), without the score row.
func (e *Engine) TopK(u int32, k int, excludeSorted []int32) ([]rank.Entry, int) {
	return e.TopKFoldIn(e.m.UserVector(u, nil), k, excludeSorted)
}

// TopKFoldIn is TopK for a caller-supplied (folded-in) user vector.
func (e *Engine) TopKFoldIn(userFactors []float64, k int, excludeSorted []int32) ([]rank.Entry, int) {
	if k <= 0 {
		return nil, 0 // mirror rank.TopKDropped: no selection, no counting
	}
	qs := [1]query{{uf: userFactors, sel: rank.NewSelector(k, excludeSorted)}}
	e.sweep(qs[:])
	return qs[0].sel.Finish()
}

// TopKQuery is one known-user request of a TopKUsers batch.
type TopKQuery struct {
	User          int32
	K             int
	ExcludeSorted []int32 // ascending ids to skip; nil for none
}

// TopKResult is one query's answer: what TopK returns.
type TopKResult struct {
	Entries []rank.Entry
	Dropped int
}

// TopKUsers answers a batch of queries with the blocked sweep: the item
// tile is the outer loop and the queries the inner one, so each tile of V
// is read once for the whole batch, and every query owns one selector.
// Adjacent queries for the same user share that user's vector. The batch
// is split into contiguous shares across up to GOMAXPROCS goroutines;
// result i always answers qs[i], identical to TopK for any worker count.
func (e *Engine) TopKUsers(qs []TopKQuery) []TopKResult {
	work := make([]query, len(qs))
	for i, q := range qs {
		if i > 0 && q.User == qs[i-1].User {
			work[i].uf = work[i-1].uf
		} else {
			work[i].uf = e.m.UserVector(q.User, nil)
		}
		work[i].sel = rank.NewSelector(q.K, q.ExcludeSorted)
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), len(work)))
	chunk := (len(work) + workers - 1) / workers
	var wg sync.WaitGroup
	for start := 0; start < len(work); start += chunk {
		share := work[start:min(start+chunk, len(work))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.sweep(share)
		}()
	}
	wg.Wait()
	out := make([]TopKResult, len(qs))
	for i := range work {
		if qs[i].K > 0 {
			out[i].Entries, out[i].Dropped = work[i].sel.Finish()
		}
	}
	return out
}

// query is one selector riding the fused sweep under one user vector.
type query struct {
	uf    []float64
	sel   rank.Selector
	delta float32 // the scale of uf's bound image
	tol   float64 // E(uf): how far a bound score may be from the exact one
}

// filter returns the bound over the catalog's rows, or nil to the engine's
// first sweep; the second builds it.
func (e *Engine) filter() *mathx.Bound {
	if !e.swept.Load() && !e.swept.Swap(true) {
		return nil
	}
	e.boundOnce.Do(func() {
		if r := e.rows; r.V32 != nil {
			e.bound = mathx.BoundOverF32(r.V32, r.B32, e.m.Dim())
		} else {
			e.bound = mathx.BoundOverF64(r.V64, r.B64, e.m.Dim())
		}
	})
	return e.bound
}

// sweep is the fused exact scan: stream the catalog once, a tile at a
// time. While a query's selector is not full (its floor is −Inf) or the
// engine has no bound yet (its first sweep), the tile is scored exactly and
// offered whole. After that the bound scan answers the floor test for the
// tile against the floor minus E as the tile starts, one mask bit a row —
// set when the row's bound score is not a finite value below it — and the
// rows it sets are rescored exactly together, up to 16 rows of 16 a kernel
// call, and offered to the selector, which rejects those the risen floor has passed. A row the mask
// leaves out scores below the floor, where Offer would ignore it, so the
// selector ends as an exact scan of every row would leave it.
func (e *Engine) sweep(qs []query) {
	d, m := e.m.Dim(), e.m.NumItems()
	for i := range qs {
		if len(qs[i].uf) != d {
			panic(fmt.Sprintf("score: user vector has dim %d, want %d", len(qs[i].uf), d))
		}
	}
	bd := e.filter()
	var pbuf [512]int8 // the queries' bound images
	p, stride := pbuf[:], 0
	if bd != nil {
		stride = bd.Stride()
		if len(qs)*stride > len(p) {
			p = make([]int8, len(qs)*stride)
		}
		for i := range qs {
			qs[i].delta, qs[i].tol = bd.Query(qs[i].uf, p[i*stride:(i+1)*stride])
		}
	}
	var tile [tileItems]float64
	var mask [tileItems/64 + 2]uint64
	var g mf.Gather
	for lo := 0; lo < m; lo += tileItems {
		hi := min(lo+tileItems, m)
		for i := range qs {
			q := &qs[i]
			floor := q.sel.Floor()
			if bd == nil || math.IsInf(floor, -1) {
				e.rows.Scan(q.uf, lo, hi, tile[:hi-lo])
				q.sel.OfferRun(int32(lo), tile[:hi-lo])
				continue
			}
			bits := bd.Scan(p[i*stride:(i+1)*stride], q.delta, floor-q.tol, lo, hi, mask[:])
			for {
				rows, scores := e.rows.ScanMasked(q.uf, lo, bits, &g, tile[:])
				if len(rows) == 0 {
					break
				}
				q.sel.OfferIDs(rows, scores)
			}
		}
	}
}

// NewScoreRows allocates a batch output buffer: rows score rows of
// NumItems(model) columns each, backed by one contiguous allocation.
func NewScoreRows(rows, numItems int) [][]float64 {
	flat := make([]float64, rows*numItems)
	out := make([][]float64, rows)
	for i := range out {
		out[i] = flat[i*numItems : (i+1)*numItems : (i+1)*numItems]
	}
	return out
}
