package retrieval

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
)

// Index is a cluster-pruned IVF index over one immutable model's item
// factors. It is read-only after construction and safe for concurrent
// queries. It holds its own packed copy of every item row and bias and no
// reference to the parameter set it was built from, so it may outlive
// that set: the serve path carries an Index across model swaps for as
// long as Indexes says the new item half is the one it packed, and builds
// a fresh one only when it is not. Beside the pack it holds the bound
// filter SearchCells scans first (mathx.Bound): an int8 image of the packed
// rows in slot order, 4·⌈d/4⌉ + 4 bytes an item, whatever the pack's
// precision.
//
// Layout: item parameters are *packed* cell-major — each cell's member
// vectors (dim floats a row) sit contiguously in one array and their
// biases in another, ids ascending within the cell, which is the shape
// mathx.Bound and mf.ItemRows take. Scoring a cell is then literally the
// exact scan's loop (mf.Sweep) over a different span, at the same cache
// behavior; the speedup over exact is the fraction of the catalog pruned
// away.
type Index struct {
	dim    int // latent dimensionality d
	nlist  int
	nprobe int // default probe width; Search can override per query

	// probeVecs (nlist rows of dim) and probeBias (nlist) are the first
	// dim coordinates and the bias coordinate of the k-means centroids —
	// all of a centroid the query [uf, 1, 0] meets. Centroids are
	// unit-norm, or zero for a cell that only ever held quarantined items.
	probeVecs []float64
	probeBias []float64

	// ids lists every item id exactly once, cell-major, ascending within
	// each cell; rows holds the matching V_i rows and b_i, slot for slot.
	// offsets[c]..offsets[c+1] is cell c's span in both. An index built
	// from a float32 parameter set (mf.Factors32) packs float32 rows
	// (rows.V32, B32) and scans them with the mixed-precision kernel,
	// halving the bytes each probe streams; any other packs float64 rows.
	ids     []int32
	rows    mf.ItemRows
	offsets []int32

	bound *mathx.Bound // over the packed rows, in slot order

	numItems  int
	maxNorm   float64 // M: the largest augmented item norm
	nonFinite int     // items quarantined for non-finite parameters
}

// BuildIVF constructs the index: augment every item vector onto the
// common-norm sphere (folding the bias in), run seeded spherical k-means
// as the coarse quantizer, and pack items into cell-major inverted lists.
// The build is deterministic given (m, cfg) and never panics on
// degenerate input — non-finite rows, zero-norm items, duplicate vectors,
// and NLists > items are all handled (see augmentItems and kmeans).
//
// m may be any parameter representation. A float32 source (mf.Factors32)
// is packed as float32 rows: the clustering geometry is computed on the
// exactly-widened float64 values, so building from a quantized model and
// from its widened copy yields the same cells, and cell scans are
// bit-identical to dense float32 scoring.
func BuildIVF(m mf.Params, cfg Config) (*Index, error) {
	if m == nil {
		return nil, fmt.Errorf("retrieval: nil model")
	}
	n := m.NumItems()
	if n < 1 {
		return nil, fmt.Errorf("retrieval: model has no items")
	}
	cfg = cfg.withDefaults(n)
	d := m.Dim()
	aug, nonFinite, maxNorm := augmentItems(m)
	centroids, assign := kmeans(aug, n, d+2, cfg.NLists, cfg.Iters, mathx.NewRNG(cfg.Seed))
	nlist := len(centroids) / (d + 2)

	// Counting pass then a fill pass in ascending item id order, so each
	// cell's span ends up id-sorted without any per-cell sort.
	offsets := make([]int32, nlist+1)
	for _, c := range assign {
		offsets[c+1]++
	}
	for c := 0; c < nlist; c++ {
		offsets[c+1] += offsets[c]
	}
	ix := &Index{
		dim: d, nlist: nlist, nprobe: min(cfg.NProbe, nlist),
		probeVecs: make([]float64, nlist*d), probeBias: make([]float64, nlist),
		ids: make([]int32, n), offsets: offsets,
		numItems: n, maxNorm: maxNorm, nonFinite: nonFinite,
	}
	for c := 0; c < nlist; c++ {
		row := centroids[c*(d+2):]
		copy(ix.probeVecs[c*d:c*d+d], row)
		ix.probeBias[c] = row[d]
	}
	var v32, b32 []float32
	f32src, isF32 := m.(*mf.Factors32)
	if isF32 {
		_, v32, b32 = f32src.RawParams32()
		ix.rows = mf.ItemRows{V32: make([]float32, n*d), B32: make([]float32, n)}
	} else {
		ix.rows = mf.ItemRows{V64: make([]float64, n*d), B64: make([]float64, n)}
	}
	cursor := make([]int32, nlist)
	copy(cursor, offsets[:nlist])
	var vbuf []float64
	for i := 0; i < n; i++ {
		c := assign[i]
		slot := int(cursor[c])
		cursor[c]++
		ix.ids[slot] = int32(i)
		if isF32 {
			copy(ix.rows.V32[slot*d:slot*d+d], v32[i*d:i*d+d])
			if b32 != nil {
				ix.rows.B32[slot] = b32[i]
			}
			continue
		}
		vbuf = m.ItemVector(int32(i), vbuf)
		copy(ix.rows.V64[slot*d:slot*d+d], vbuf)
		ix.rows.B64[slot] = m.Bias(int32(i))
	}
	ix.bound = ix.rows.Bound(d)
	return ix, nil
}

// Indexes reports whether ix is the index BuildIVF would pack from m's
// item half: the same representation kind (float32 rows exactly when m is
// an *mf.Factors32), item count and dimensionality, and every packed row
// and bias equal to m's bit for bit (a NaN equals the same NaN, 0 is not
// -0; float32 values are compared exactly widened). The build is a
// deterministic function of those values and the Config, so under an
// unchanged Config a true answer means a rebuild would reproduce ix. One
// O(items·dim) pass over the packed copy — about a millisecond at
// 26 744 × 16, against a fifth of a second to build on two cores.
func (ix *Index) Indexes(m mf.Params) bool {
	_, isF32 := m.(*mf.Factors32)
	if m == nil || isF32 != (ix.rows.V32 != nil) || m.NumItems() != ix.numItems || m.Dim() != ix.dim {
		return false
	}
	d := ix.dim
	var vbuf []float64
	for slot, id := range ix.ids {
		vbuf = m.ItemVector(id, vbuf)
		if isF32 {
			if !sameBits(float64(ix.rows.B32[slot]), m.Bias(id)) || !slices.EqualFunc(ix.rows.V32[slot*d:slot*d+d], vbuf,
				func(p float32, v float64) bool { return sameBits(float64(p), v) }) {
				return false
			}
		} else if !sameBits(ix.rows.B64[slot], m.Bias(id)) || !slices.EqualFunc(ix.rows.V64[slot*d:slot*d+d], vbuf, sameBits) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// NLists returns the number of k-means cells actually built (≤ Config.
// NLists when the catalog is smaller than the requested cell count).
func (ix *Index) NLists() int { return ix.nlist }

// NProbe returns the default probe width.
func (ix *Index) NProbe() int { return ix.nprobe }

// NumItems returns the indexed catalog size.
func (ix *Index) NumItems() int { return ix.numItems }

// Dim returns the latent dimensionality the index was built for.
func (ix *Index) Dim() int { return ix.dim }

// NonFinite returns how many items were quarantined at build time for
// carrying NaN/Inf parameters. Such items still live in a cell (so the
// partition stays exhaustive) but their exact re-rank score is non-finite
// and Search drops them, exactly as the dense path does.
func (ix *Index) NonFinite() int { return ix.nonFinite }

// ProbeCells returns the indices of the nprobe cells whose centroids best
// match the query (<= 0 means the index default), best first. The query is
// the raw user factor vector (d coordinates); the implicit augmented query
// is [uf, 1, 0], so only the first d+1 centroid coordinates participate.
// Cells rank by affinity descending, ties toward the lower cell; a NaN
// affinity (poisoned query) is ranked as -Inf — cells are never dropped,
// only ordered, so nprobe == nlist always probes everything and
// degenerates to exact retrieval whatever the query contains. The order is
// SearchCells' walk: the best cells fill the selector first, so the floor
// the later cells are filtered against is high early. The serve path calls
// this separately from SearchCells so the two phases land in distinct
// trace stages.
func (ix *Index) ProbeCells(uf []float64, nprobe int) []int32 {
	ix.checkQuery(uf)
	if nprobe <= 0 {
		nprobe = ix.nprobe
	}
	nprobe = min(nprobe, ix.nlist)
	// One affinity per cell and a copy for the selection to reorder: on
	// the stack up to 512 cells (the default for a 65 536-item catalog).
	var stack [2 * 512]float64
	buf := stack[:]
	if 2*ix.nlist > len(buf) {
		buf = make([]float64, 2*ix.nlist)
	}
	aff, order := buf[:ix.nlist], buf[ix.nlist:2*ix.nlist]
	mathx.ScanF64(uf, ix.probeVecs, ix.probeBias, aff)
	for c, a := range aff {
		if math.IsNaN(a) {
			aff[c] = math.Inf(-1)
		}
	}
	copy(order, aff)
	// The cells above the nprobe-th best affinity are in; those equal to
	// it fill the remaining places from the lowest cell up.
	cut := mathx.KthLargest(order, nprobe)
	ties := nprobe
	for _, a := range aff {
		if a > cut {
			ties--
		}
	}
	cells := make([]int32, 0, nprobe)
	for c, a := range aff {
		if a > cut {
			cells = append(cells, int32(c))
		} else if a == cut && ties > 0 {
			cells = append(cells, int32(c))
			ties--
		}
	}
	slices.SortFunc(cells, func(a, b int32) int {
		if aff[a] != aff[b] {
			return cmp.Compare(aff[b], aff[a])
		}
		return cmp.Compare(a, b)
	})
	return cells
}

// checkQuery panics unless the query has the index's dimensionality — a
// caller bug, never input; the kernels would score a prefix or refuse the
// shape with a less useful message.
func (ix *Index) checkQuery(uf []float64) {
	if len(uf) != ix.dim {
		panic(fmt.Sprintf("retrieval: query has dim %d, want %d", len(uf), ix.dim))
	}
}

// Probe returns the candidate item ids the query would re-rank at the
// given probe width (<= 0 means the index default), merged into one
// ascending id list. Search is the production path; Probe exists so tests
// can assert candidate-set invariants directly.
func (ix *Index) Probe(uf []float64, nprobe int) []int32 {
	cells := ix.ProbeCells(uf, nprobe)
	total := 0
	for _, c := range cells {
		total += int(ix.offsets[c+1] - ix.offsets[c])
	}
	cands := make([]int32, 0, total)
	for _, c := range cells {
		cands = append(cands, ix.ids[ix.offsets[c]:ix.offsets[c+1]]...)
	}
	slices.Sort(cands)
	return cands
}

// Search returns the top k items for the query among the members of the
// nprobe best cells (nprobe <= 0 uses the index default), plus the count
// of candidates dropped for non-finite scores. Every candidate that can
// place is scored by the function the dense scan calls — mathx.ScanF64,
// or ScanF64F32 over float32 rows — so scores are bit-identical to exact
// retrieval; the only approximation is which items get scored at all. With
// nprobe == nlist the result (entries and dropped count) is bit-identical
// to rank.TopKDropped over engine.ScoreAll output.
//
// excludeSorted is an ascending list of item ids to skip (the caller's
// train positives; may be nil). Fewer than k entries come back when
// pruning or exclusion leaves fewer than k scoreable candidates — callers
// must treat k as a cap, not a promise.
func (ix *Index) Search(uf []float64, k, nprobe int, excludeSorted []int32) ([]rank.Entry, int) {
	return ix.SearchCells(uf, ix.ProbeCells(uf, nprobe), k, excludeSorted)
}

// SearchCells is the scoring half of Search: exactly re-rank the members
// of the given cells (a ProbeCells result) and return the top k. Splitting
// the phases lets the serve path time candidate selection ("probe") and
// scan-plus-select ("score") as separate trace stages. Each cell is one
// mf.Sweep offer, the exact scan's filter-and-rescore loop over the cell's
// span of the pack, handing the members' ids to the shared rank.Selector,
// whose exclusion, non-finite drop-and-count, floor rejection and heap are
// the ones the exact scan runs. A member the bound filter leaves out
// scores below the floor, so the answer is that of rescoring every
// member; the order of the cells only decides how many survive.
func (ix *Index) SearchCells(uf []float64, cells []int32, k int, excludeSorted []int32) ([]rank.Entry, int) {
	ix.checkQuery(uf)
	if k <= 0 {
		return nil, 0 // mirror rank.TopKDropped: no selection, no counting
	}
	sel := rank.NewSelector(k, excludeSorted)
	var sw mf.Sweep
	sw.Start(ix.rows, ix.bound, uf)
	for _, c := range cells {
		sw.Offer(&sel, int(ix.offsets[c]), int(ix.offsets[c+1]), ix.ids)
	}
	return sel.Finish()
}

// augmentItems maps every item onto the common-norm sphere: row i is
// [V_i, b_i, √(M² − ‖V_i‖² − b_i²)] / M where M is the largest augmented
// norm, making every finite row unit-norm. Items with non-finite
// parameters are quarantined to the zero vector — they cluster
// deterministically (affinity 0 everywhere), stay in the partition, and
// are eliminated at re-rank time by their non-finite exact score. When
// every item is zero-norm (an untrained model) all rows become the same
// unit vector e_{d+1}, which k-means handles like any duplicate set.
func augmentItems(m mf.Params) (aug []float64, nonFinite int, maxNorm float64) {
	n, d := m.NumItems(), m.Dim()
	D := d + 2
	aug = make([]float64, n*D)
	norm2 := make([]float64, n)
	bad := make([]bool, n)
	var max2 float64
	var vbuf []float64
	for i := 0; i < n; i++ {
		b := m.Bias(int32(i))
		s := b * b
		ok := isFinite(b)
		vf := m.ItemVector(int32(i), vbuf)
		vbuf = vf
		for _, x := range vf {
			s += x * x
			ok = ok && isFinite(x)
		}
		if !ok || !isFinite(s) {
			bad[i] = true
			nonFinite++
			continue
		}
		norm2[i] = s
		if s > max2 {
			max2 = s
		}
	}
	maxNorm = math.Sqrt(max2)
	for i := 0; i < n; i++ {
		if bad[i] {
			continue // quarantined: the zero vector
		}
		row := aug[i*D : i*D+D]
		if maxNorm == 0 {
			row[D-1] = 1
			continue
		}
		vf := m.ItemVector(int32(i), vbuf)
		vbuf = vf
		for j, x := range vf {
			row[j] = x / maxNorm
		}
		row[d] = m.Bias(int32(i)) / maxNorm
		rem := 1 - norm2[i]/max2
		if rem < 0 {
			rem = 0 // guard float cancellation on the max-norm item itself
		}
		row[d+1] = math.Sqrt(rem)
	}
	return aug, nonFinite, maxNorm
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
