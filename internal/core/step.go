package core

import (
	"math"
	"slices"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// This file holds the one copy of the Eq. 22 update. Every objective
// this repository trains by SGD on a risk that is linear in the item
// scores,
//
//	R = Σ_t c_t·f_ut,   f_ut = U_u·V_t + b_t,
//
// differs only in which items it samples and in the coefficient vector c
// (CLAPF-MAP, CLAPF-MRR, CLAPF-Multi, MPR, and BPR as CLAPF's λ = 0
// reduction: the objectives of objective.go). With g = 1 − σ(R), Eq. 23's
// scalar, the minimization step on −ln σ(R) + regularization is
//
//	V_t += γ(g·c_t·U_u − α_v·V_t)    (from the pre-update U_u)
//	b_t += γ(g·c_t − β_v·b_t)
//	U_u += γ(g·w − α_u·U_u),         w = Σ_t c_t·V_t
//
// The Kernel below does exactly that and nothing else: what to do with a
// non-finite R, whether to track the loss, and how to time the phases
// are decisions of its one caller, Trainer.step, taken between Risk and
// Apply.

// maxStepItems is the most item rows one step can touch (CLAPF-Multi's).
const maxStepItems = 4

// Rates are one step's learning rate γ and regularization strengths
// α_u, α_v, β_v.
type Rates struct {
	Learn   float64
	RegUser float64
	RegItem float64
	RegBias float64
}

// Kernel applies Eq. 22 steps to one model, in place on the model's own
// slices. It carries the scratch a step needs and is not safe for
// concurrent use.
type Kernel struct {
	model *mf.Model

	// The step in flight, filled by Risk and consumed by Clip and Apply.
	n     int
	uf    []float64
	item  [maxStepItems]int32
	c     [maxStepItems]float64
	v     [maxStepItems][]float64 // the item rows
	b     [maxStepItems]float64   // biases as read
	inert [maxStepItems]bool      // zero-coefficient alias of an earlier row
	w     []float64               // Σ_t c_t·V_t
}

// NewKernel prepares a kernel over m.
func NewKernel(m *mf.Model) *Kernel {
	return &Kernel{model: m, w: make([]float64, m.Dim())}
}

// Risk gathers user u's row and the item rows and returns
// R = Σ_t coef[t]·(U_u·V_items[t] + b_items[t]), leaving the step staged
// for Clip and Apply. Dot products accumulate element by element in
// index order and the terms of R left to right, so the value is
// bit-identical to spelling the sum out with mathx.Dot.
//
// A row whose coefficient is zero and whose item repeats an earlier one
// is inert: it is CLAPF's single-positive case, where k must alias i and
// the caller has folded k's coefficient into i's. An inert row still
// enters R and w (as zeros) but Apply does not write it, so the aliased
// vector is updated and regularized once.
func (k *Kernel) Risk(u int32, items []int32, coef []float64) float64 {
	m := k.model
	uf := m.UserFactors(u)
	w := k.w[:len(uf)]
	k.uf, k.n = uf, len(items)
	var r float64
	for t, it := range items {
		c := coef[t]
		k.item[t], k.c[t] = it, c
		k.inert[t] = c == 0 && slices.Contains(items[:t], it)
		v, b := m.ItemFactors(it), m.Bias(it)
		k.v[t], k.b[t] = v, b
		v = v[:len(uf)]
		var d float64
		if t == 0 {
			for q, x := range uf {
				d += x * v[q]
				w[q] = c * v[q]
			}
		} else {
			for q, x := range uf {
				d += x * v[q]
				w[q] += c * v[q]
			}
		}
		r += c * (d + b)
	}
	return r
}

// Clip bounds the L2 norm of the staged step's data-term gradient at cn
// by scaling the multiplier g, and reports whether it had to. Every
// data-term component carries the factor g — ∂/∂U_u = g·w,
// ∂/∂V_t = g·c_t·U_u, ∂/∂b_t = g·c_t — so with s = Σ_t c_t²,
//
//	‖grad‖² = g²·(‖w‖² + s·‖U_u‖² [+ s with bias])
//
// and clipping is exactly g ← g·cn/‖grad‖: directions untouched, and a
// threshold that never fires leaves the trajectory bit-identical to an
// unclipped one. Regularization is excluded from the norm — it contracts
// Θ toward zero and cannot diverge. The two norms run in two-way split
// accumulators (their chains are latency-bound; the reassociation only
// moves the threshold by an ulp, never the risk).
func (k *Kernel) Clip(g, cn float64) (float64, bool) {
	uf, w := k.uf, k.w[:len(k.uf)]
	var wsq0, wsq1, usq0, usq1 float64
	q := 0
	for ; q+1 < len(uf); q += 2 {
		wsq0 += w[q] * w[q]
		wsq1 += w[q+1] * w[q+1]
		usq0 += uf[q] * uf[q]
		usq1 += uf[q+1] * uf[q+1]
	}
	if q < len(uf) {
		wsq0 += w[q] * w[q]
		usq0 += uf[q] * uf[q]
	}
	var s float64
	for _, c := range k.c[:k.n] {
		s += c * c
	}
	normsq := (wsq0 + wsq1) + s*(usq0+usq1)
	if k.model.HasBias() {
		normsq += s
	}
	normsq *= g * g
	if normsq <= cn*cn {
		return g, false
	}
	return g * cn / math.Sqrt(normsq), true
}

// Apply writes the staged step with multiplier g: item rows and biases
// first, from the pre-update user row, then the user row from the w that
// Risk captured.
func (k *Kernel) Apply(g float64, rt Rates) {
	m, uf := k.model, k.uf
	gamma := rt.Learn
	for t := 0; t < k.n; t++ {
		if k.inert[t] {
			continue
		}
		gc := g * k.c[t]
		v := k.v[t][:len(uf)]
		for q, x := range uf {
			v[q] += gamma * (gc*x - rt.RegItem*v[q])
		}
		// A no-op on a bias-free model.
		m.AddBias(k.item[t], gamma*(gc-rt.RegBias*k.b[t]))
	}
	w := k.w[:len(uf)]
	for q, x := range uf {
		uf[q] = x + gamma*(g*w[q]-rt.RegUser*x)
	}
}

// NewModel allocates a users × items model of the training split's shape
// and draws its factors from N(0, initStd²) with rng.
func NewModel(train *dataset.Dataset, dim int, useBias bool, initStd float64, rng *mathx.RNG) (*mf.Model, error) {
	m, err := mf.New(mf.Config{
		NumUsers: train.NumUsers(),
		NumItems: train.NumItems(),
		Dim:      dim,
		UseBias:  useBias,
	})
	if err != nil {
		return nil, err
	}
	m.InitGaussian(rng, initStd)
	return m, nil
}
