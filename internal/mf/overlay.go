package mf

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Overlay is an updatable per-user layer over a read-only Params: the
// online-learning surface. The base representation (a trained Model or a
// mapped Factors32 store) stays frozen and is embedded, so everything about
// items — the scan, ItemVector, Bias, the shape — is the base's own method.
// Users touched by streaming feedback get a replacement factor row — the
// output of a FoldInUser solve over their extended history — which
// UserVector returns in place of the base's; every scan runs under
// UserVector(u), so that one method is the whole routing.
//
// Rows live at the base's precision: on a float32 base Set rounds the
// float64 solve to float32 (and keeps it widened) before it stores it.
// Because FoldInUser is a pure function of (item factors, deduped sorted
// history, reg), an overlaid row is then exactly what Bake writes into the
// user matrix of a promotion export — the scan under UserVector(u) sees the
// same bits before the promotion (the overlaid row) and after it (the
// stored one) — and exactly what a post-crash replay recomputes: the
// property the feedback pipeline's consistency proofs rest on. On a
// float64 base nothing is rounded.
//
// Rows are immutable once set: Set stores a private copy and replaces the
// map entry, so a reader that picked up a row before a concurrent Set
// keeps scoring a consistent vector. Reads take an RLock only for the map
// lookup; the scan itself runs lock-free on the immutable row.
type Overlay struct {
	Params // the base

	mu   sync.RWMutex
	rows map[int32][]float64
}

// NewOverlay returns an empty overlay on base.
func NewOverlay(base Params) *Overlay {
	return &Overlay{Params: base, rows: make(map[int32][]float64)}
}

// ErrNonFiniteRow marks an overlay row refused for a NaN or ±Inf entry.
var ErrNonFiniteRow = errors.New("mf: non-finite overlay row")

// Set installs a replacement factor row for user u. The vector is copied
// and brought to the base's precision; shape mismatches and non-finite
// entries are rejected so a poisoned fold-in solve can never reach the
// scoring path. Rounding comes first, the scan second: a float64 solve
// that overflows float32 is refused here, never baked as ±Inf.
func (o *Overlay) Set(u int32, vec []float64) error {
	if u < 0 || int(u) >= o.NumUsers() {
		return fmt.Errorf("mf: overlay user %d out of range [0,%d)", u, o.NumUsers())
	}
	if len(vec) != o.Dim() {
		return fmt.Errorf("mf: overlay row has dim %d, want %d", len(vec), o.Dim())
	}
	row := make([]float64, len(vec))
	copy(row, vec)
	if o.ElemBytes() == 4 {
		for i, x := range row {
			row[i] = float64(float32(x))
		}
	}
	for _, x := range row {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: user %d has entry %v at the base's %d-byte precision",
				ErrNonFiniteRow, u, x, o.ElemBytes())
		}
	}
	o.mu.Lock()
	o.rows[u] = row
	o.mu.Unlock()
	return nil
}

// FoldIn re-solves user u's factors over history against the base's item
// factors and installs the result — the one way a feedback event, an
// overlay rebuild and a promotion export turn a history into a row.
func (o *Overlay) FoldIn(u int32, history []int32, reg float64) error {
	vec, err := FoldInUser(o.Params, history, reg)
	if err != nil {
		return err
	}
	return o.Set(u, vec)
}

// Bake returns a copy of the base, in the base's own representation, with
// every overlaid row written into the user matrix — what a promotion
// exports. Rows are already at the base's precision, so the write is
// exact. Item parameters are shared with the base, not copied: the result
// is as read-only as the base is.
func (o *Overlay) Bake() (Params, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	switch base := o.Params.(type) {
	case *Model:
		out := base.Clone()
		for u, row := range o.rows {
			copy(out.UserFactors(u), row)
		}
		return out, nil
	case *Factors32:
		out := *base // keeps base's pin on a mapping V and b still point into
		out.u = append([]float32(nil), base.u...)
		for u, row := range o.rows {
			dst := out.userRow(u)
			for i, x := range row {
				dst[i] = float32(x)
			}
		}
		return &out, nil
	}
	return nil, fmt.Errorf("mf: cannot bake an overlay over a %T", o.Params)
}

// Len reports how many users currently have overlaid rows.
func (o *Overlay) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.rows)
}

// Row returns u's overlaid factor row, or nil when u scores from the
// base. The returned slice is immutable; callers must not mutate it.
func (o *Overlay) Row(u int32) []float64 {
	o.mu.RLock()
	row := o.rows[u]
	o.mu.RUnlock()
	return row
}

// UserVector returns the overlaid row when present, else the base's.
func (o *Overlay) UserVector(u int32, dst []float64) []float64 {
	if row := o.Row(u); row != nil {
		return row
	}
	return o.Params.UserVector(u, dst)
}

// CountNonFinite scans the base plus every overlaid row. Set rejects
// non-finite rows, so overlay contributions should always be zero; the
// scan keeps the swap-time validation gate honest anyway.
func (o *Overlay) CountNonFinite() (u, v, b int) {
	u, v, b = o.Params.CountNonFinite()
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, row := range o.rows {
		for _, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				u++
			}
		}
	}
	return
}

// ParamBytes returns the base footprint plus the overlaid rows'.
func (o *Overlay) ParamBytes() int64 {
	o.mu.RLock()
	n := len(o.rows)
	o.mu.RUnlock()
	return o.Params.ParamBytes() + 8*int64(n)*int64(o.Dim())
}
