package retrieval

import (
	"fmt"
	"math"
	"sort"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/rank"
)

// Index is a cluster-pruned IVF index over one immutable model's item
// factors. It is read-only after construction and safe for concurrent
// queries; the serve path builds a fresh Index on every model swap, so an
// Index never outlives the model generation it was built from.
//
// Layout: item parameters are *packed* cell-major — each cell's member
// rows ([V_i, b_i], dim+1 floats) sit contiguously, ids ascending within
// the cell. Probing a cell is then a dense streaming scan at the same
// cache behavior as the exact kernel in internal/score; the speedup over
// exact is almost exactly the fraction of the catalog pruned away.
type Index struct {
	dim    int // latent dimensionality d
	augDim int // d + 2: bias coordinate + norm-augmentation coordinate
	nlist  int
	nprobe int // default probe width; Search can override per query

	// centroids holds nlist rows of augDim coordinates, unit-norm (or
	// zero for a cell that only ever held quarantined items).
	centroids []float64

	// ids lists every item id exactly once, cell-major, ascending within
	// each cell; packed holds the matching [V_i..., b_i] rows (stride
	// dim+1). offsets[c]..offsets[c+1] is cell c's span in both. Exactly
	// one of packed/packed32 is non-nil: an index built from a float32
	// parameter set (mf.Factors32) packs float32 rows and scans them with
	// the mixed-precision kernel, halving the bytes each probe streams.
	ids      []int32
	packed   []float64
	packed32 []float32
	offsets  []int32

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
	stride := d + 1
	ids := make([]int32, n)
	var packed []float64
	var packed32 []float32
	f32src, isF32 := m.(*mf.Factors32)
	if isF32 {
		packed32 = make([]float32, n*stride)
	} else {
		packed = make([]float64, n*stride)
	}
	cursor := make([]int32, nlist)
	copy(cursor, offsets[:nlist])
	var vbuf []float64
	for i := 0; i < n; i++ {
		c := assign[i]
		slot := cursor[c]
		cursor[c]++
		ids[slot] = int32(i)
		if isF32 {
			_, v32, b32 := f32src.RawParams32()
			row := packed32[int(slot)*stride : int(slot)*stride+stride]
			copy(row[:d], v32[i*d:i*d+d])
			if b32 != nil {
				row[d] = b32[i]
			}
			continue
		}
		row := packed[int(slot)*stride : int(slot)*stride+stride]
		vf := m.ItemVector(int32(i), vbuf)
		vbuf = vf
		copy(row[:d], vf)
		row[d] = m.Bias(int32(i))
	}

	nprobe := cfg.NProbe
	if nprobe > nlist {
		nprobe = nlist
	}
	return &Index{
		dim: d, augDim: d + 2,
		nlist: nlist, nprobe: nprobe,
		centroids: centroids,
		ids:       ids, packed: packed, packed32: packed32, offsets: offsets,
		numItems: n, maxNorm: maxNorm, nonFinite: nonFinite,
	}, nil
}

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
// match the query (<= 0 means the index default), in ascending cell
// order. The query is the raw user factor vector (d coordinates); the
// implicit augmented query is [uf, 1, 0], so only the first d+1 centroid
// coordinates participate. A NaN affinity (poisoned query) is ranked as
// -Inf — cells are never dropped, only ordered, so nprobe == nlist always
// probes everything and degenerates to exact retrieval whatever the query
// contains. The serve path calls this separately from SearchCells so the
// two phases land in distinct trace stages.
func (ix *Index) ProbeCells(uf []float64, nprobe int) []int32 {
	if nprobe <= 0 {
		nprobe = ix.nprobe
	}
	if nprobe > ix.nlist {
		nprobe = ix.nlist
	}
	d, D := ix.dim, ix.augDim
	h := rank.NewHeap(nprobe)
	for c := 0; c < ix.nlist; c++ {
		row := ix.centroids[c*D : c*D+D]
		a := mathx.Dot(uf, row[:d]) + row[d]
		if math.IsNaN(a) {
			a = math.Inf(-1)
		}
		h.Push(rank.Entry{Item: int32(c), Score: a})
	}
	top := h.Finish()
	cells := make([]int32, len(top))
	for i, e := range top {
		cells[i] = e.Item
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a] < cells[b] })
	return cells
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
	sort.Slice(cands, func(a, b int) bool { return cands[a] < cands[b] })
	return cands
}

// Search returns the top k items for the query among the members of the
// nprobe best cells (nprobe <= 0 uses the index default), plus the count
// of candidates dropped for non-finite scores. Every candidate is scored
// with the same operations as the dense kernel — mathx.Dot over the item
// row plus the bias — so scores are bit-identical to exact retrieval;
// the only approximation is which items get scored at all. With
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
// scan-plus-select ("score") as separate trace stages. Exclusion,
// non-finite drop-and-count, floor rejection and the heap are the shared
// rank.Selector's — the same selection the exact scan runs.
func (ix *Index) SearchCells(uf []float64, cells []int32, k int, excludeSorted []int32) ([]rank.Entry, int) {
	if k <= 0 {
		return nil, 0 // mirror rank.TopKDropped: no selection, no counting
	}
	sel := rank.NewSelector(k, excludeSorted)
	d, stride := ix.dim, ix.dim+1
	for _, c := range cells {
		lo, hi := int(ix.offsets[c]), int(ix.offsets[c+1])
		if lo == hi {
			continue
		}
		// Ids ascend within a cell, so one seek positions the selector's
		// exclusion merge pointer for the whole span; an excluded id is
		// skipped before its dot product is paid for.
		sel.Seek(ix.ids[lo])
		for j := lo; j < hi; j++ {
			id := ix.ids[j]
			if sel.Excluded(id) {
				continue
			}
			off := j * stride
			// The branch is taken the same way for every candidate of a
			// query, so it predicts perfectly; both kernels accumulate in
			// float64 with the same operation order (see internal/mathx).
			var s float64
			if ix.packed32 != nil {
				row := ix.packed32[off : off+stride]
				s = mathx.DotF64F32(uf, row[:d]) + float64(row[d])
			} else {
				row := ix.packed[off : off+stride]
				s = mathx.Dot(uf, row[:d]) + row[d]
			}
			sel.Offer(id, s)
		}
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
