package mf

import (
	"fmt"
	"math"

	"clapf/internal/linalg"
	"clapf/internal/mathx"
	"clapf/internal/rank"
)

// FoldInUser computes factors for a user not present at training time — the
// cold-start serving path. Given the items the new user has interacted
// with, it solves the ridge least-squares problem
//
//	min_u  Σ_{i∈items} (1 − b_i − u·V_i)² + reg·‖u‖²
//
// over the *frozen* item factors, which is exactly one user half-step of
// WMF's alternating least squares. The returned vector can be scored
// against the model with ScoreFoldIn.
//
// Duplicate item ids in the history are collapsed before the solve: an
// implicit-feedback history carries at most one observation per item, and
// a repeated id would otherwise contribute its rank-one update twice —
// silently double-weighting that item in the normal equations. Every
// caller gets the deduped semantics, not just ones that sanitize their
// input first.
//
// It accepts any Params implementation; float32 item rows widen exactly to
// float64, so folding in against a quantized model solves the same normal
// equations as against its widened copy, bit for bit.
func FoldInUser(m Params, items []int32, reg float64) ([]float64, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("mf: fold-in needs at least one interaction")
	}
	if reg <= 0 {
		return nil, fmt.Errorf("mf: fold-in reg = %v, want > 0", reg)
	}
	d := m.Dim()
	a := linalg.NewMatrix(d)
	b := make([]float64, d)
	seen := make(map[int32]bool, len(items))
	var vbuf []float64
	for _, it := range items {
		if it < 0 || int(it) >= m.NumItems() {
			return nil, fmt.Errorf("mf: fold-in item %d out of range [0,%d)", it, m.NumItems())
		}
		if seen[it] {
			continue
		}
		seen[it] = true
		vf := m.ItemVector(it, vbuf)
		vbuf = vf
		a.SymRankOne(1, vf)
		mathx.AXPY(1-m.Bias(it), vf, b)
	}
	a.AddDiagonal(reg)
	return linalg.SolveSPD(a, b)
}

// ScoreFoldIn returns the predicted relevance of item i for a folded-in
// user factor vector.
func (m *Model) ScoreFoldIn(userFactors []float64, i int32) float64 {
	return mathx.Dot(userFactors, m.ItemFactors(i)) + m.Bias(i)
}

// ScoreRangeFoldIn fills the tile out (len(out) == hi-lo, out[j] is item
// lo+j) with the scores of items [lo, hi) under a user vector —
// ScoreFoldIn's values. It is the model's one item scan: a stored user is
// scored by passing its row (ScoreAll does), a cold-start or overlaid user
// by passing the folded-in one, so the two cannot disagree. The loop is
// mathx.ScanF64 — mathx.Dot plus the bias per row.
func (m *Model) ScoreRangeFoldIn(userFactors []float64, lo, hi int, out []float64) {
	checkTile(len(userFactors), m.dim, lo, hi, m.numItems, len(out))
	var b []float64
	if m.b != nil {
		b = m.b[lo:hi]
	}
	mathx.ScanF64(userFactors, m.v[lo*m.dim:hi*m.dim], b, out)
}

// SimilarItems returns the k items most similar to item i by cosine over
// the learned factors, best first, excluding i itself. Zero-norm items
// (never trained) score −1 and sink to the bottom. Works against any
// Params implementation; float32 rows widen exactly, so the cosine values
// match the widened model's.
func SimilarItems(m Params, i int32, k int) ([]rank.Entry, error) {
	if i < 0 || int(i) >= m.NumItems() {
		return nil, fmt.Errorf("mf: item %d out of range [0,%d)", i, m.NumItems())
	}
	if k <= 0 {
		return nil, fmt.Errorf("mf: k = %d, want > 0", k)
	}
	anchor := m.ItemVector(i, nil)
	anchorNorm := math.Sqrt(mathx.Norm2Sq(anchor))
	scores := make([]float64, m.NumItems())
	var vbuf []float64
	for j := int32(0); int(j) < m.NumItems(); j++ {
		vf := m.ItemVector(j, vbuf)
		vbuf = vf
		norm := math.Sqrt(mathx.Norm2Sq(vf))
		if anchorNorm == 0 || norm == 0 {
			scores[j] = -1
			continue
		}
		scores[j] = mathx.Dot(anchor, vf) / (anchorNorm * norm)
	}
	return rank.TopK(scores, k, func(j int32) bool { return j == i }), nil
}
