package mathx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Sum(xs); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 denominator: 32/7.
	if got := Variance(xs); !AlmostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if Variance([]float64{5}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v,%v), want (-1,7)", min, max)
	}
}

func TestArgMaxTieBreaking(t *testing.T) {
	if got := ArgMax([]float64{1, 3, 3, 2}); got != 1 {
		t.Errorf("ArgMax = %d, want first maximal index 1", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !AlmostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestOnlineStatsMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				xs = append(xs, x)
			}
		}
		var o OnlineStats
		for _, x := range xs {
			o.Add(x)
		}
		if o.N() != len(xs) {
			return false
		}
		if len(xs) == 0 {
			return o.Mean() == 0 && o.Variance() == 0
		}
		scale := 1 + math.Abs(Mean(xs))
		return AlmostEqual(o.Mean(), Mean(xs), 1e-8*scale) &&
			AlmostEqual(o.Variance(), Variance(xs), 1e-6*(1+Variance(xs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOnlineStatsStdErr(t *testing.T) {
	var o OnlineStats
	for i := 0; i < 4; i++ {
		o.Add(float64(i))
	}
	want := o.StdDev() / 2
	if got := o.StdErr(); !AlmostEqual(got, want, 1e-12) {
		t.Errorf("StdErr = %v, want %v", got, want)
	}
}

func TestDot(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestAXPY(t *testing.T) {
	x := []float64{1, 2}
	dst := []float64{10, 20}
	AXPY(2, x, dst)
	if dst[0] != 12 || dst[1] != 24 {
		t.Errorf("AXPY = %v, want [12 24]", dst)
	}
}

func TestScaleFillCopy(t *testing.T) {
	xs := []float64{1, 2, 3}
	Scale(3, xs)
	if xs[2] != 9 {
		t.Errorf("Scale result %v", xs)
	}
	c := CopyVec(xs)
	Fill(xs, 0)
	if c[0] != 3 || xs[0] != 0 {
		t.Error("CopyVec did not detach from source")
	}
}

func TestNorm2Sq(t *testing.T) {
	if got := Norm2Sq([]float64{3, 4}); got != 25 {
		t.Errorf("Norm2Sq = %v, want 25", got)
	}
}

func TestDotCauchySchwarz(t *testing.T) {
	f := func(raw []float64) bool {
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e3 {
				return true
			}
		}
		d := Dot(a, b)
		bound := math.Sqrt(Norm2Sq(a) * Norm2Sq(b))
		return d*d <= bound*bound*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestKthLargestMatchesSort: the selection against a full sort, on random
// inputs, inputs with few distinct values, sorted either way or all equal,
// and ±Inf, for every k.
func TestKthLargestMatchesSort(t *testing.T) {
	rng := NewRNG(58)
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 4 {
			case 0:
				xs[i] = rng.NormFloat64()
			case 1:
				xs[i] = float64(rng.Intn(3))
			case 2:
				xs[i] = float64(i) * float64(trial%8-4)
			case 3:
				xs[i] = []float64{math.Inf(-1), math.Inf(1), 0, 1}[rng.Intn(4)]
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for k := 1; k <= n; k++ {
			if got := KthLargest(append([]float64(nil), xs...), k); got != sorted[n-k] {
				t.Fatalf("KthLargest(%v, %d) = %v, want %v", xs, k, got, sorted[n-k])
			}
		}
	}
}
