package sampling

import (
	"math"
	"testing"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
)

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(1)
	const draws = 200000
	counts := make([]float64, len(weights))
	for n := 0; n < draws; n++ {
		counts[a.Sample(rng)]++
	}
	total := mathx.Sum(weights)
	for i, w := range weights {
		want := w / total
		got := counts[i] / draws
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a, err := NewAlias([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(2)
	for n := 0; n < 100; n++ {
		if a.Sample(rng) != 0 {
			t.Fatal("single category sampler returned nonzero")
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a, err := NewAlias([]float64{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(3)
	for n := 0; n < 10000; n++ {
		v := a.Sample(rng)
		if v == 0 || v == 2 {
			t.Fatalf("zero-weight category %d drawn", v)
		}
	}
}

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Error("negative weight accepted")
	}
}

// negatives builds a NegativeSampler or fails the test.
func negatives(t *testing.T, scheme Negatives, candidates int, d *dataset.Dataset, m *mf.Model, seed uint64) *NegativeSampler {
	t.Helper()
	s, err := NewNegativeSampler(scheme, candidates, d, m, mathx.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUniformPairInvariants(t *testing.T) {
	d, m := fixture(t)
	users := d.UsersWithAtLeast(1)
	for _, scheme := range []Negatives{UniformNegatives, DNSNegatives, AoBPRNegatives, ABSNegatives} {
		s := negatives(t, scheme, 4, d, m, 5)
		for n := 0; n < 2000; n++ {
			u := users[n%len(users)]
			obs := d.Positives(u)
			if j := s.Sample(u, obs[n%len(obs)]); d.IsPositive(u, j) {
				t.Fatalf("scheme %d: j = %d observed", scheme, j)
			}
		}
	}
	if _, err := NewNegativeSampler(Negatives(99), 4, d, m, mathx.NewRNG(5)); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestDNSPairPicksHarderNegatives(t *testing.T) {
	d, m := fixture(t) // item score = item id
	dns := negatives(t, DNSNegatives, 8, d, m, 7)
	uni := negatives(t, UniformNegatives, 0, d, nil, 7)
	users := d.UsersWithAtLeast(1)
	var dnsJ, uniJ mathx.OnlineStats
	for n := 0; n < 3000; n++ {
		u := users[n%len(users)]
		i := d.Positives(u)[0]
		dnsJ.Add(m.Score(u, dns.Sample(u, i)))
		uniJ.Add(m.Score(u, uni.Sample(u, i)))
	}
	if dnsJ.Mean() <= uniJ.Mean() {
		t.Errorf("DNS negative score %.2f not above uniform %.2f", dnsJ.Mean(), uniJ.Mean())
	}
}

func TestDNSValidation(t *testing.T) {
	d, m := fixture(t)
	if _, err := NewNegativeSampler(DNSNegatives, 5, d, nil, mathx.NewRNG(1)); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewNegativeSampler(DNSNegatives, 0, d, m, mathx.NewRNG(1)); err == nil {
		t.Error("zero candidates accepted")
	}
	if _, err := NewNegativeSampler(AoBPRNegatives, 0, d, nil, mathx.NewRNG(1)); err == nil {
		t.Error("AoBPR without a model accepted")
	}
}

func TestPopNegativeWeighting(t *testing.T) {
	// Build a dataset where item 0 is wildly popular; the popularity
	// sampler must draw it far more often than a tail item for users who
	// have not observed it.
	var pairs []dataset.Interaction
	for u := int32(1); u < 50; u++ {
		pairs = append(pairs, dataset.Interaction{User: u, Item: 0})
	}
	pairs = append(pairs, dataset.Interaction{User: 0, Item: 5})
	d, err := dataset.FromInteractions("pop", 50, 20, pairs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewPopNegative(d, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 20)
	for n := 0; n < 10000; n++ {
		j := s.Sample(0) // user 0 has not observed item 0
		if d.IsPositive(0, j) {
			t.Fatal("popularity sampler returned observed item")
		}
		counts[j]++
	}
	if counts[0] < 10*counts[10] {
		t.Errorf("popular item drawn %d times vs tail %d — want heavy weighting", counts[0], counts[10])
	}
}

func TestABSPairPrefersMisrankedPairs(t *testing.T) {
	d, m := fixture(t) // item score = item id
	abs := negatives(t, ABSNegatives, 8, d, m, 11)
	uni := negatives(t, UniformNegatives, 0, d, nil, 11)
	users := d.UsersWithAtLeast(1)
	var absMargin, uniMargin mathx.OnlineStats
	for n := 0; n < 3000; n++ {
		u := users[n%len(users)]
		obs := d.Positives(u)
		i := obs[n%len(obs)]
		j := abs.Sample(u, i)
		if d.IsPositive(u, j) {
			t.Fatal("ABS negative violates the positivity invariant")
		}
		absMargin.Add(m.Score(u, i) - m.Score(u, j))
		uniMargin.Add(m.Score(u, i) - m.Score(u, uni.Sample(u, i)))
	}
	if absMargin.Mean() >= uniMargin.Mean() {
		t.Errorf("ABS margin %.2f not below uniform %.2f — should mine hard pairs",
			absMargin.Mean(), uniMargin.Mean())
	}
}

// TestABSScreensAgainstTheGivenPositive plants a model (item score = item
// id) and replays the sampler's candidate stream on a twin generator: the
// negative ABS hands back for a record (u, i) is the first candidate the
// model ranks above that i, or, when none is, the arg-min of f_ui − f_uj
// over all of them. The pre-objective BPR loop screened each candidate
// against a positive of ABS's own choosing and trained the survivor
// against the record's i, so for a high-scored i it stopped early at
// candidates the record's pair does not misrank.
func TestABSScreensAgainstTheGivenPositive(t *testing.T) {
	d, m := fixture(t)
	const candidates = 6
	abs := negatives(t, ABSNegatives, candidates, d, m, 13)
	twin := mathx.NewRNG(13)
	stoppedEarly, ranAll := 0, 0
	for n := 0; n < 2000; n++ {
		u := d.UsersWithAtLeast(1)[n%len(d.UsersWithAtLeast(1))]
		obs := d.Positives(u)
		i := obs[n%len(obs)]
		want, wantMargin := int32(-1), math.Inf(1)
		for c := 0; c < candidates; c++ {
			j := Unobserved(d, u, twin)
			if margin := m.Score(u, i) - m.Score(u, j); margin < wantMargin {
				want, wantMargin = j, margin
			}
			if wantMargin < 0 {
				break
			}
		}
		if wantMargin < 0 {
			stoppedEarly++
		} else {
			ranAll++
		}
		if got := abs.Sample(u, i); got != want {
			t.Fatalf("draw %d: ABS(u=%d, i=%d) = %d (margin %v), want %d (margin %v)",
				n, u, i, got, m.Score(u, i)-m.Score(u, got), want, wantMargin)
		}
	}
	if stoppedEarly == 0 || ranAll == 0 {
		t.Errorf("%d early accepts, %d full screens: the test needs both", stoppedEarly, ranAll)
	}
}

func TestABSValidation(t *testing.T) {
	d, m := fixture(t)
	if _, err := NewNegativeSampler(ABSNegatives, 4, d, nil, mathx.NewRNG(1)); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewNegativeSampler(ABSNegatives, 0, d, m, mathx.NewRNG(1)); err == nil {
		t.Error("zero candidates accepted")
	}
}
