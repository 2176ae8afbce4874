package core

import (
	"fmt"
	"math"
	"testing"

	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// kernelWorld is a small random model for kernel-level tests.
func kernelWorld(bias bool, seed uint64) *mf.Model {
	m := mf.MustNew(mf.Config{NumUsers: 4, NumItems: 9, Dim: 7, UseBias: bias})
	rng := mathx.NewRNG(seed)
	m.InitGaussian(rng, 0.5)
	if bias {
		for i := int32(0); i < 9; i++ {
			m.AddBias(i, rng.NormFloat64())
		}
	}
	return m
}

func sameBits(a, b *mf.Model) error {
	au, av, ab := a.RawParams()
	bu, bv, bb := b.RawParams()
	for name, pair := range map[string][2][]float64{"U": {au, bu}, "V": {av, bv}, "B": {ab, bb}} {
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				return fmt.Errorf("%s[%d]: %v vs %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
	return nil
}

// kernelStep is the full caller sequence — Risk, g, optional Clip, Apply
// — and returns R and whether the clip fired.
func kernelStep(k *Kernel, u int32, items []int32, coef []float64, clip float64, rt Rates) (float64, bool) {
	r := k.Risk(u, items, coef)
	g := 1 - mathx.Sigmoid(r)
	clipped := false
	if clip > 0 {
		g, clipped = k.Clip(g, clip)
	}
	k.Apply(g, rt)
	return r, clipped
}

// referenceStep spells Eq. 22 out the way the pre-kernel loops did — one
// fused sweep over q for up to four named rows, mathx.Dot for the risk —
// as the oracle the kernel is held to, bit for bit. It handles the k == i
// fold exactly as those loops did: the aliased row's coefficient is zero
// and its write is skipped.
func referenceStep(m *mf.Model, u int32, items []int32, coef []float64, rt Rates) float64 {
	uf := m.UserFactors(u)
	rows := make([][]float64, len(items))
	skip := make([]bool, len(items))
	var r float64
	for t, it := range items {
		rows[t] = m.ItemFactors(it)
		skip[t] = coef[t] == 0 && t > 0 && it == items[0]
		r += coef[t] * (mathx.Dot(uf, rows[t]) + m.Bias(it))
	}
	g := 1 - mathx.Sigmoid(r)
	bias := make([]float64, len(items))
	for t, it := range items {
		bias[t] = m.Bias(it)
	}
	for q := range uf {
		w := coef[0] * rows[0][q]
		for t := 1; t < len(items); t++ {
			w += coef[t] * rows[t][q]
		}
		du := g*w - rt.RegUser*uf[q]
		deltas := make([]float64, len(items))
		for t := range items {
			deltas[t] = g*coef[t]*uf[q] - rt.RegItem*rows[t][q]
		}
		uf[q] += rt.Learn * du
		for t := range items {
			if !skip[t] {
				rows[t][q] += rt.Learn * deltas[t]
			}
		}
	}
	for t, it := range items {
		if !skip[t] {
			m.AddBias(it, rt.Learn*(g*coef[t]-rt.RegBias*bias[t]))
		}
	}
	return r
}

type kernelCase struct {
	name  string
	items []int32
	coef  []float64
}

// kernelCases covers every arity the repository steps with — BPR's two
// items, CLAPF's and MPR's three, CLAPF-Multi's four — with and without
// the k == i alias.
func kernelCases() []kernelCase {
	coef, folded := riskCoeffs(sampling.MAP, 0.4)
	return []kernelCase{
		{"2 items", []int32{3, 5}, []float64{1, -1}},
		{"3 items", []int32{3, 8, 5}, coef[:]},
		{"3 items, k == i", []int32{3, 3, 5}, folded[:]},
		{"4 items", []int32{3, 8, 1, 5}, []float64{0.3, 0.2, -0.2, -0.3}},
		{"4 items, k == i", []int32{3, 3, 1, 5}, []float64{0.5, 0, -0.2, -0.3}},
	}
}

// TestStepKernelMatchesReference runs the same steps through the kernel
// and through the spelled-out reference: both must leave bit-identical
// parameters and report the same risk, for every arity, aliased or not,
// with and without bias, with clipping off and armed-but-idle; a firing
// clip must report itself on every step.
func TestStepKernelMatchesReference(t *testing.T) {
	rt := Rates{Learn: 0.05, RegUser: 0.01, RegItem: 0.02, RegBias: 0.03}
	for _, bias := range []bool{true, false} {
		for _, clip := range []float64{0, 1e9, 0.01} {
			for _, c := range kernelCases() {
				name := fmt.Sprintf("%s/bias=%t/clip=%g", c.name, bias, clip)
				model, ref := kernelWorld(bias, 5), kernelWorld(bias, 5)
				k := NewKernel(model)
				for rep := 0; rep < 3; rep++ { // repeated steps reuse the scratch
					u := int32(rep % 2)
					r, clipped := kernelStep(k, u, c.items, c.coef, clip, rt)
					if clipped != (clip == 0.01) {
						t.Fatalf("%s rep %d: clipped = %v", name, rep, clipped)
					}
					if clip != 0.01 {
						if rr := referenceStep(ref, u, c.items, c.coef, rt); math.Float64bits(rr) != math.Float64bits(r) {
							t.Fatalf("%s rep %d: kernel R %v, reference R %v", name, rep, r, rr)
						}
					}
				}
				if clip != 0.01 {
					if err := sameBits(model, ref); err != nil {
						t.Errorf("%s: kernel vs spelled-out reference: %v", name, err)
					}
				}
			}
		}
	}
}

// TestStepKernelLambdaZeroIsBPR is the paper's reduction claim at the
// instruction level: at λ = 0 a CLAPF step on (i, k, j), either variant,
// writes the same bits to U_u, V_i, V_j, b_i, b_j as BPR's coefficient
// vector (1, −1) on (i, j). The listwise item k carries no data term: it
// only shrinks by its own regularizer when it is a second observed item
// (the objective of §4.3 regularizes every sampled vector), and is not
// written at all when it aliases i.
func TestStepKernelLambdaZeroIsBPR(t *testing.T) {
	rt := Rates{Learn: 0.05, RegUser: 0.01, RegItem: 0.02, RegBias: 0.03}
	const u, i, j = 1, 3, 5
	for _, bias := range []bool{true, false} {
		for _, variant := range []sampling.Objective{sampling.MAP, sampling.MRR} {
			for _, k := range []int32{8, i} {
				bpr, clapf := kernelWorld(bias, 9), kernelWorld(bias, 9)
				before := clapf.Clone()
				kernelStep(NewKernel(bpr), u, []int32{i, j}, bprCoef[:], 0, rt)
				coef, folded := riskCoeffs(variant, 0)
				if k == i {
					coef = folded
				}
				kernelStep(NewKernel(clapf), u, []int32{i, k, j}, coef[:], 0, rt)

				if k != i {
					// Give BPR's model the shrink CLAPF's regularizer applied to
					// V_k and b_k, so the whole parameter set can be compared.
					vk := bpr.ItemFactors(k)
					for q, x := range before.ItemFactors(k) {
						vk[q] = x + rt.Learn*(0*before.UserFactors(u)[q]-rt.RegItem*x)
					}
					bpr.AddBias(k, rt.Learn*(0-rt.RegBias*before.Bias(k)))
				}
				if err := sameBits(bpr, clapf); err != nil {
					t.Errorf("%v bias=%t k=%d: BPR (1,−1) on (i,j) vs CLAPF λ=0 on (i,k,j): %v", variant, bias, k, err)
				}
			}
		}
	}
}
