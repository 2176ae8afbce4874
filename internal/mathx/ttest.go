package mathx

import (
	"fmt"
	"math"
)

// This file implements the paired t-test the experiment harness uses to
// report whether CLAPF's metric gains over a baseline are significant
// across replicate splits, built on a hand-rolled regularized incomplete
// beta function (stdlib-only constraint).

// lnGamma is math.Lgamma without the sign (inputs here are positive).
func lnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes §6.4, modified
// Lentz algorithm). Valid for a, b > 0 and x ∈ [0, 1].
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	// Symmetry: converge fastest when x < (a+1)/(a+b+2).
	front := math.Exp(lnGamma(a+b) - lnGamma(a) - lnGamma(b) +
		a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// StudentTCDF returns P(T ≤ t) for Student's t distribution with df
// degrees of freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TTestResult summarizes a paired t-test.
type TTestResult struct {
	T  float64 // t statistic of the mean difference
	DF float64 // degrees of freedom (n−1)
	P  float64 // two-sided p-value
}

// PairedTTest tests whether the mean of a−b differs from zero across
// paired observations (e.g. per-replicate metric values of two methods on
// identical splits). It needs at least two pairs; a zero-variance nonzero
// difference reports p = 0, and an all-zero difference p = 1.
func PairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) {
		return TTestResult{}, fmt.Errorf("mathx: paired t-test needs equal lengths, got %d and %d", len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return TTestResult{}, fmt.Errorf("mathx: paired t-test needs >= 2 pairs, got %d", n)
	}
	var diff OnlineStats
	for i := range a {
		diff.Add(a[i] - b[i])
	}
	df := float64(n - 1)
	se := diff.StdErr()
	if se == 0 {
		if diff.Mean() == 0 {
			return TTestResult{T: 0, DF: df, P: 1}, nil
		}
		return TTestResult{T: math.Inf(sign(diff.Mean())), DF: df, P: 0}, nil
	}
	t := diff.Mean() / se
	p := 2 * (1 - StudentTCDF(math.Abs(t), df))
	return TTestResult{T: t, DF: df, P: p}, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// WelchTTest tests whether two independent samples share a mean, without
// assuming equal variances (Welch's unequal-variance t-test, with the
// Welch–Satterthwaite degrees of freedom). The chaos and float32-parity
// suites use it to compare replicate metric distributions of independent
// runs, to which the paired test does not apply. Each sample needs at
// least two observations; two identical zero-variance samples report
// p = 1, distinct ones p = 0.
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, fmt.Errorf("mathx: Welch t-test needs >= 2 observations per sample, got %d and %d", len(a), len(b))
	}
	var sa, sb OnlineStats
	for _, x := range a {
		sa.Add(x)
	}
	for _, x := range b {
		sb.Add(x)
	}
	na, nb := float64(len(a)), float64(len(b))
	va, vb := sa.Variance()/na, sb.Variance()/nb
	se := math.Sqrt(va + vb)
	if se == 0 {
		if sa.Mean() == sb.Mean() {
			return TTestResult{T: 0, DF: na + nb - 2, P: 1}, nil
		}
		return TTestResult{T: math.Inf(sign(sa.Mean() - sb.Mean())), DF: na + nb - 2, P: 0}, nil
	}
	t := (sa.Mean() - sb.Mean()) / se
	df := (va + vb) * (va + vb) / (va*va/(na-1) + vb*vb/(nb-1))
	p := 2 * (1 - StudentTCDF(math.Abs(t), df))
	return TTestResult{T: t, DF: df, P: p}, nil
}
