// Package retrieval provides sublinear top-K maximum-inner-product
// retrieval over a trained model's item factors — the serve-path unlock
// for catalogs where exact scoring (O(items·dim) per request, see
// internal/score) is too slow.
//
// The construction has two layers:
//
//  1. A norm-augmented reduction from MIPS to cosine search. Every item's
//     score is f_ui = U_u·V_i + b_i, an inner product between the
//     (d+1)-vector [U_u, 1] and [V_i, b_i]. Appending one more coordinate
//     √(M² − ‖V_i‖² − b_i²), where M is the largest augmented item norm,
//     gives every item vector identical norm M — so the item maximizing
//     the inner product is exactly the item maximizing cosine similarity
//     against the query [U_u, 1, 0]. On the unit sphere (after dividing
//     by M) spherical k-means becomes a meaningful coarse quantizer for
//     the *scoring* geometry, bias included.
//
//  2. A cluster-pruned IVF (inverted-file) index over those unit
//     vectors: a seeded, deterministic spherical k-means partitions the
//     catalog into nlist cells; a query scans the nlist centroids, keeps
//     the top nprobe cells, and re-ranks every item in them that can
//     place (a bound scan of an int8 image skips the rest) with the
//     *exact* score U_u·V_i + b_i — computed by the function the dense
//     scan calls (mathx.ScanF64, or ScanF64F32 over float32 rows), so the only
//     approximation is which items get scored at all, never
//     the scores themselves. With nprobe == nlist the result is
//     bit-identical to exact retrieval.
//
// Construction is NaN-safe (items carrying non-finite parameters are
// quarantined to the zero vector and — like every candidate — re-ranked
// with their exact score, which the rank layer then drops as
// non-finite) and bit-deterministic given a seed, which is what lets a
// hot reload rebuild the index reproducibly and lets tests pin exact
// outputs.
package retrieval

import (
	"fmt"
	"math"
)

// Mode selects the top-K retrieval strategy on the serve path.
type Mode int

const (
	// ModeExact ranks every item per query — the fused exact scan in
	// internal/score. Always correct, O(items·dim) per query.
	ModeExact Mode = iota
	// ModeIVF prunes to the nprobe most promising k-means cells and
	// re-ranks their members exactly — sublinear per query, recall
	// measured against exact by internal/eval.
	ModeIVF
)

// String renders the mode the way the -retrieval flag spells it.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeIVF:
		return "ivf"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -retrieval flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "exact":
		return ModeExact, nil
	case "ivf":
		return ModeIVF, nil
	}
	return ModeExact, fmt.Errorf("retrieval: unknown mode %q (want exact or ivf)", s)
}

// Config tunes IVF construction. The zero value of every field gets a
// sane default from withDefaults, so callers can set only what they care
// about.
type Config struct {
	// NLists is the number of k-means cells. Default ⌈2√items⌉: the
	// classic ⌈√items⌉ balances centroid scan against cell re-rank, but
	// the re-rank side costs dim flops per item versus one comparison
	// per centroid, so doubling the cell count buys measurably better
	// recall-per-candidate at negligible scan cost.
	NLists int
	// NProbe is how many cells a query visits. Default ⌈NLists/4⌉.
	// NProbe == NLists degenerates to exact retrieval.
	NProbe int
	// Seed drives k-means initialization. The build is bit-deterministic
	// given (model, Config): same seed, same index, same answers.
	// Default 1.
	Seed uint64
	// Iters bounds the k-means refinement sweeps (it stops early once an
	// assignment pass changes nothing). Default 12.
	Iters int
}

func (c Config) withDefaults(numItems int) Config {
	if c.NLists <= 0 {
		c.NLists = int(math.Ceil(2 * math.Sqrt(float64(numItems))))
	}
	if c.NLists > numItems {
		c.NLists = numItems
	}
	if c.NLists < 1 {
		c.NLists = 1
	}
	if c.NProbe <= 0 {
		c.NProbe = (c.NLists + 3) / 4
	}
	if c.NProbe > c.NLists {
		c.NProbe = c.NLists
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Iters <= 0 {
		c.Iters = 12
	}
	return c
}
