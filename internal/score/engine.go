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
// item rows themselves (mf.Items) and runs in two kernels: a float32 bound
// scan of the tile (mathx.BoundF32) and, for the few rows whose bound can
// reach the selector's floor, the representation's exact kernel over that
// one row (mathx.ScanF64 or ScanF64F32, what ScoreRangeFoldIn runs). Every
// score any method returns is bit-identical to mf.Model.ScoreAll's — the
// per-item dot products are the same operations in the same order, and a
// row the bound skips provably scores below the floor — so swapping the
// engine into a ranking path can never change a result, only its cost.
package score

import (
	"fmt"
	"runtime"
	"sync"

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
// swap. Its one piece of state is the fused scan's bound, built on the
// first top-K: over a float32 catalog its own rows, over a float64 one a
// float32 shadow of them (4·(d+1) bytes an item).
type Engine struct {
	m     mf.Params
	block int         // items per ScoreUsers tile
	rows  mf.ItemRows // m's item half, for the fused scan's kernels

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
// Adjacent queries for the same user share that user's tile scores. The
// batch is split into contiguous shares across up to GOMAXPROCS
// goroutines; result i always answers qs[i], identical to TopK for any
// worker count.
func (e *Engine) TopKUsers(qs []TopKQuery) []TopKResult {
	work := make([]query, len(qs))
	for i, q := range qs {
		if i > 0 && q.User == qs[i-1].User {
			work[i].uf, work[i].shared = work[i-1].uf, true
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
		share[0].shared = false // the previous query's tile lives in another goroutine
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
	uf     []float64
	sel    rank.Selector
	shared bool    // same vector as the previous query: reuse its bound tile
	tol    float64 // E(uf): how far a bound score may be from the exact one
}

// filter returns the bound over the catalog's rows, built on first use.
func (e *Engine) filter() *mathx.Bound {
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
// time; score the tile under each query's vector with the bound scan, and
// walk it from survivor to survivor — a row whose bound score is not a
// finite value below the selector's floor minus E — rescoring each exactly
// and offering it to that query's selector while the tile is in L1. A row
// the walk skips scores below the floor, where Offer would ignore it, so
// the selector ends as an exact scan of every row would leave it.
func (e *Engine) sweep(qs []query) {
	bd := e.filter()
	d, m := e.m.Dim(), e.m.NumItems()
	var ubuf [128]float32 // the queries' float32 images
	u32 := ubuf[:]
	if len(qs)*d > len(u32) {
		u32 = make([]float32, len(qs)*d)
	}
	for i := range qs {
		if len(qs[i].uf) != d {
			panic(fmt.Sprintf("score: user vector has dim %d, want %d", len(qs[i].uf), d))
		}
		qs[i].tol = bd.Query(qs[i].uf, u32[i*d:(i+1)*d])
	}
	var tile [tileItems]float64
	var one [1]float64
	for lo := 0; lo < m; lo += tileItems {
		t := tile[:min(tileItems, m-lo)]
		for i := range qs {
			q := &qs[i]
			if !q.shared {
				bd.Scan(u32[i*d:(i+1)*d], lo, lo+len(t), t)
			}
			for j := 0; ; j++ {
				if j += mathx.FirstNotBelow(t[j:], q.sel.Floor()-q.tol); j == len(t) {
					break
				}
				e.exact(q.uf, lo+j, one[:])
				q.sel.OfferRun(int32(lo+j), one[:])
			}
		}
	}
}

// exact writes item i's score under uf into out[0] with the kernel the
// representation's ScoreRangeFoldIn runs, over that one row.
func (e *Engine) exact(uf []float64, i int, out []float64) {
	d := len(uf)
	if r := e.rows; r.V32 != nil {
		var b []float32
		if r.B32 != nil {
			b = r.B32[i : i+1]
		}
		mathx.ScanF64F32(uf, r.V32[i*d:(i+1)*d], b, out)
	} else {
		var b []float64
		if r.B64 != nil {
			b = r.B64[i : i+1]
		}
		mathx.ScanF64(uf, r.V64[i*d:(i+1)*d], b, out)
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
