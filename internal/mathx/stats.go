package mathx

import (
	"math"
	"sort"
)

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs. Slices with
// fewer than two elements have variance 0.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest values in xs. It panics on an
// empty slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return
}

// ArgMax returns the index of the largest element, breaking ties toward the
// smallest index. It panics on an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best := 0
	for i, x := range xs[1:] {
		if x > xs[best] {
			best = i + 1
		}
	}
	return best
}

// KthLargest returns the k-th largest element of xs (1 <= k <= len(xs)),
// reordering xs: Hoare's selection around the middle element, linear on
// average where a sort is n log n. xs must hold no NaN.
func KthLargest(xs []float64, k int) float64 {
	k--
	for lo, hi := 0, len(xs)-1; lo < hi; {
		pivot := xs[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] > pivot {
				i++
			}
			for xs[j] < pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Quantile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// OnlineStats accumulates count, mean, and variance in one pass using
// Welford's algorithm. The zero value is ready to use.
type OnlineStats struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (o *OnlineStats) Add(x float64) {
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations seen.
func (o *OnlineStats) N() int { return o.n }

// Mean returns the running mean.
func (o *OnlineStats) Mean() float64 { return o.mean }

// Variance returns the running unbiased sample variance.
func (o *OnlineStats) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the running sample standard deviation.
func (o *OnlineStats) StdDev() float64 { return math.Sqrt(o.Variance()) }

// StdErr returns the standard error of the mean.
func (o *OnlineStats) StdErr() float64 {
	if o.n == 0 {
		return 0
	}
	return o.StdDev() / math.Sqrt(float64(o.n))
}

// AlmostEqual reports whether a and b differ by no more than tol, treating
// NaNs as never equal.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}
