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
// block instead of once per user. ScoreUsers is that blocked kernel; it
// materialises full score rows, for callers that read every score (the
// benchmark harness's batch timings). TopK and TopKFoldIn are the serve
// path's exact retrieval, one query at a time: one streaming pass
// (mf.Sweep) that scores a small tile of items and offers each score
// straight to a rank.Selector, so a request that keeps ten items never
// allocates, writes or re-reads a NumItems-sized row. A batch of users is
// answered as that many single queries: with the bound filter below, most
// of a query's work is its own bound scan, not the bytes of V, and
// blocking 32 users into one sweep bought 1.1× (42 against 46 µs a user).
//
// ScoreUsers tiles through mf.Params.ScoreRangeFoldIn — a parameter set's
// one item scan, tile-relative (the output has length hi-lo) — under
// UserVector(u), handing it a window of each row. The fused scan reads the
// item rows themselves (mf.Items), and mf.Sweep runs it in two kernels: a
// bound scan of the tile over an int8 image of the rows (mathx.BoundI8),
// which answers the floor test itself with one mask bit a row, and, for
// the few rows whose bound can reach the selector's floor, the
// representation's exact kernel over those rows gathered together
// (mathx.ScanF64 or ScanF64F32, what ScoreRangeFoldIn runs). An engine's
// first sweep has no image yet and, like every sweep while the selector is
// not full, runs the exact kernel over every row of the tile. Every score
// any method returns is bit-identical to mf.Model.ScoreAll's — the
// per-item dot products are the same operations in the same order, and a
// row the bound skips provably scores below the floor — so swapping the
// engine into a ranking path can never change a result, only its cost.
package score

import (
	"fmt"
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

// TopKFoldIn is TopK for a caller-supplied (folded-in) user vector: one
// mf.Sweep over the whole catalog, filtered by the engine's bound.
func (e *Engine) TopKFoldIn(userFactors []float64, k int, excludeSorted []int32) ([]rank.Entry, int) {
	if k <= 0 {
		return nil, 0 // mirror rank.TopKDropped: no selection, no counting
	}
	if len(userFactors) != e.m.Dim() {
		panic(fmt.Sprintf("score: user vector has dim %d, want %d", len(userFactors), e.m.Dim()))
	}
	sel := rank.NewSelector(k, excludeSorted)
	var sw mf.Sweep
	sw.Start(e.rows, e.filter(), userFactors)
	sw.Offer(&sel, 0, e.m.NumItems(), nil)
	return sel.Finish()
}

// filter returns the bound over the catalog's rows, or nil to the engine's
// first sweep; the second builds it.
func (e *Engine) filter() *mathx.Bound {
	if !e.swept.Load() && !e.swept.Swap(true) {
		return nil
	}
	e.boundOnce.Do(func() { e.bound = e.rows.Bound(e.m.Dim()) })
	return e.bound
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
