package main

import (
	"math"
	"sort"

	"clapf/internal/mathx"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: below that the value is set by a handful of outliers.
const minBeyond = 10

// sliceSeconds is how long a slice of a timed window is, and minSliceOps
// how many operations it must hold on average — the fewest that support a
// 95th percentile — so a window of few operations is cut into fewer, longer
// slices. See best for how the slices' values are combined, and why short
// slices: the box's slow spells last from a second to minutes, and a
// fifth-of-a-second slice finds the calm moments that a whole 0.8 s window
// straddles. Over the same eight disturbed runs per workload, run-to-run
// spread (distance between the quartiles) fell from 18 % to 9 % on
// shard_exact_uniform's median, 38 % to 17 % on its 95th percentile, 30 % to
// 12 % on routed_rw's, and stayed at 22–25 % on shard_ivf_zipf's median,
// where two of the eight runs had no calm fifth of a second in them.
const (
	sliceSeconds = 0.2
	minSliceOps  = 200
)

// sliceCount is how many slices a window of that many operations and that
// length is cut into.
func sliceCount(ops int, span float64) int {
	n := int(span/sliceSeconds + 0.5)
	if most := ops / minSliceOps; n > most {
		n = most
	}
	if n < 1 {
		n = 1
	}
	return n
}

// percentile returns the q-quantile (0 < q < 1) of an ascending sample by
// the nearest-rank rule. A failed operation is stored as +Inf and so
// sorts last: it misses any latency limit.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supported reports whether the q-quantile of n samples has at least
// minBeyond samples beyond it.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9 // 100 × (1 − 0.9) is 9.999… in floating point
}

// highestSupported picks, from the usual ladder, the highest percentile
// that n samples support; 0.5 when none does.
func highestSupported(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.75, 0.9, 0.95, 0.99, 0.999} {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// median is the middle of xs; xs must not be empty.
func median(xs []float64) float64 { return mathx.Quantile(xs, 0.5) }

// timed is one operation of a window: when it was due (or, in a closed
// loop, when it ended), as an offset into the window, and its latency.
type timed struct {
	at  float64 // seconds into the window
	lat float64 // milliseconds; +Inf when the operation failed
}

// best combines the values that the slices of a run measured for one
// metric into the run's value: the best of them (the lowest latency, the
// highest rate). The slices of a run are short and spread over its whole
// length, and what disturbs a slice on a shared box — a neighbour's burst
// — only ever makes it worse, never better, so the best slice is the one
// that saw the machine undisturbed; on the reference box it repeats from
// run to run within 1–3 % in a calm hour where the median of the same
// slices moves by 10 %. A change in the program moves every slice and the
// best with them. What it cannot see is a stall that spares some slices
// entirely; the percentiles inside a slice and the failure counts are there
// for those.
func best(values []float64, lowerIsBetter bool) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	lo, hi := mathx.MinMax(values)
	if lowerIsBetter {
		return lo
	}
	return hi
}

// latencies returns the ascending latencies of a slice.
func latencies(ops []timed) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.lat
	}
	sort.Float64s(out)
	return out
}

// slicedPercentile takes the q-quantile of every slice and combines them
// by best. When a slice would not support q (fewer than minBeyond
// samples beyond it) the slices are pooled and the quantile taken once.
func slicedPercentile(slices [][]timed, q float64) float64 {
	var per, pooled []float64
	enough := true
	for _, sl := range slices {
		lat := latencies(sl)
		pooled = append(pooled, lat...)
		if !supported(len(lat), q) {
			enough = false
			continue
		}
		per = append(per, percentile(lat, q))
	}
	if enough && len(per) > 0 {
		return best(per, true)
	}
	sort.Float64s(pooled)
	return percentile(pooled, q)
}

// cut divides one contiguous window's operations into n equal slices by
// offset.
func cut(ops []timed, span float64, n int) [][]timed {
	out := make([][]timed, n)
	for _, o := range ops {
		i := int(o.at / span * float64(n))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		out[i] = append(out[i], o)
	}
	return out
}

// quartiles returns Q1, the median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the driver uses for its repeatability check.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
