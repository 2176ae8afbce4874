// Package guard implements training guardrails: a loss watchdog that
// detects divergence, parameter health scans that detect non-finite
// factors, and a supervisor that recovers a tripped run from its own
// checkpoints with learning-rate backoff.
//
// CLAPF's log-sigmoid objectives are trained by plain SGD, and like other
// BPR-style pairwise learners they diverge silently when the learning
// rate, λ-mix, or sampling geometry pushes σ(·) into saturation: one
// overflowed risk value writes NaN into U or V, every score touching the
// row becomes NaN, and without a guard the damage is only discovered at
// serve time. The guard layer turns that silent failure into a tripped
// run that rolls back to the last good checkpoint, halves the learning
// rate, and continues — or, when the retry budget is exhausted, fails
// loudly with a diagnostic report instead of reporting garbage.
//
// The detection state machine lives here; the trainer in internal/core
// owns the hot path and calls into it at its natural points (every step
// for sentinels, every CheckEvery steps between segments for scans and
// the watchdog). Supervisor.Run is the one loop that slices
// a run into batches, handles a trip, and gates and writes checkpoints;
// clapf-train runs it, supervised or not.
package guard

import (
	"fmt"
	"math"

	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// Trip reasons. Reason strings are stable identifiers: they appear in
// diagnostics, logs, and tests.
const (
	// ReasonNonFiniteRisk: a per-step risk value R was NaN or ±Inf — the
	// earliest observable symptom of divergence.
	ReasonNonFiniteRisk = "nonfinite-risk"
	// ReasonNonFiniteParams: a health scan found NaN/±Inf entries in the
	// parameter vectors.
	ReasonNonFiniteParams = "nonfinite-params"
	// ReasonNonFiniteLoss: the smoothed loss itself became non-finite.
	ReasonNonFiniteLoss = "nonfinite-loss"
	// ReasonLossRise: the loss EWMA rose RiseFactor× above its best value
	// for RisePatience consecutive checks — divergence without overflow.
	ReasonLossRise = "loss-rise"
)

// Trip records why a guarded trainer stopped applying updates.
type Trip struct {
	// Step is the SGD step at which the trip was recorded (the tripping
	// step counts).
	Step int
	// Reason is one of the Reason* constants.
	Reason string
	// Detail is a human-readable elaboration (the offending value and
	// user, the scan counts).
	Detail string
}

func (t *Trip) String() string {
	return fmt.Sprintf("%s at step %d (%s)", t.Reason, t.Step, t.Detail)
}

// Config parameterizes a trainer's guard. The zero value of every field
// selects the default; see Default.
type Config struct {
	// Watchdog enables divergence detection: per-step non-finite risk
	// sentinels, the loss-EWMA rise watchdog, and sampled parameter
	// scans. When false, a guard only accounts for gradient clipping.
	Watchdog bool
	// CheckEvery is the step interval between guard checks (watchdog
	// observation, sampled parameter scan, metric flush). The trainer
	// caps its segment length at this interval so checks run between
	// segments.
	CheckEvery int
	// RiseFactor is the multiplicative loss-rise threshold: the watchdog
	// trips when the loss EWMA exceeds RiseFactor × its best (lowest)
	// observed value.
	RiseFactor float64
	// RisePatience is how many consecutive over-threshold checks are
	// required before tripping — one bad interval (a DSS refresh, a noisy
	// segment) is not divergence.
	RisePatience int
	// WarmupSteps delays rise detection while the EWMA is still dominated
	// by the initial transient. Non-finite detection is never delayed.
	WarmupSteps int
	// ScanSample is the number of parameter entries each periodic health
	// scan samples (uniformly across U, V, and b). 0 selects the default;
	// negative disables sampled scans (full scans at checkpoint gates
	// still run).
	ScanSample int
}

// Default check cadence and thresholds. The cadence trades detection
// latency for hot-path cost: each check costs a parameter sample, so
// 16384 steps (~10 ms of SGD) keeps the amortized overhead well under a
// percent while still bounding how far a divergence can run before it is
// caught.
const (
	DefaultCheckEvery   = 16384
	DefaultRiseFactor   = 1.5
	DefaultRisePatience = 3
	DefaultScanSample   = 1024
)

// Default returns c with every zero field replaced by its default.
func (c Config) Default() Config {
	if c.CheckEvery == 0 {
		c.CheckEvery = DefaultCheckEvery
	}
	if c.RiseFactor == 0 {
		c.RiseFactor = DefaultRiseFactor
	}
	if c.RisePatience == 0 {
		c.RisePatience = DefaultRisePatience
	}
	if c.WarmupSteps == 0 {
		c.WarmupSteps = 2 * c.CheckEvery
	}
	if c.ScanSample == 0 {
		c.ScanSample = DefaultScanSample
	}
	return c
}

// Validate reports the first problem with the configuration (after
// defaults are applied).
func (c Config) Validate() error {
	switch {
	case c.CheckEvery < 0:
		return fmt.Errorf("guard: CheckEvery = %d, want >= 0 (0 selects the default)", c.CheckEvery)
	case c.RiseFactor <= 1 || math.IsNaN(c.RiseFactor) || math.IsInf(c.RiseFactor, 0):
		return fmt.Errorf("guard: RiseFactor = %v, want finite > 1", c.RiseFactor)
	case c.RisePatience < 1:
		return fmt.Errorf("guard: RisePatience = %d, want >= 1", c.RisePatience)
	case c.WarmupSteps < 0:
		return fmt.Errorf("guard: WarmupSteps = %d, want >= 0", c.WarmupSteps)
	}
	return nil
}

// Watchdog watches a smoothed-loss curve for sustained rise or
// non-finite values. It keeps the best (lowest) EWMA seen so far as the
// baseline; healthy SGD loss curves decrease toward a plateau, so an EWMA
// holding RiseFactor× above the running best for RisePatience consecutive
// checks means the optimization is moving away from every point it has
// visited.
type Watchdog struct {
	cfg    Config
	best   float64
	seen   bool
	streak int
}

// NewWatchdog returns a watchdog with cfg's thresholds (defaults applied).
func NewWatchdog(cfg Config) *Watchdog {
	return &Watchdog{cfg: cfg.Default()}
}

// Observe folds one check-interval observation of the loss EWMA and
// returns a Trip when the curve has diverged. n is the number of loss
// observations behind the EWMA; 0 means the curve carries no information
// yet and the observation is skipped.
func (wd *Watchdog) Observe(step int, ewma float64, n int) *Trip {
	if n == 0 {
		return nil
	}
	if math.IsNaN(ewma) || math.IsInf(ewma, 0) {
		return &Trip{Step: step, Reason: ReasonNonFiniteLoss,
			Detail: fmt.Sprintf("loss EWMA = %v after %d observations", ewma, n)}
	}
	if !wd.seen || ewma < wd.best {
		wd.best, wd.seen = ewma, true
		wd.streak = 0
		return nil
	}
	if step < wd.cfg.WarmupSteps {
		return nil
	}
	if ewma > wd.cfg.RiseFactor*wd.best {
		wd.streak++
		if wd.streak >= wd.cfg.RisePatience {
			return &Trip{Step: step, Reason: ReasonLossRise,
				Detail: fmt.Sprintf("loss EWMA %.6g held above %.3g× best %.6g for %d checks",
					ewma, wd.cfg.RiseFactor, wd.best, wd.streak)}
		}
		return nil
	}
	wd.streak = 0
	return nil
}

// Reset clears the learned baseline. Called after a rollback: the
// restored trajectory re-learns its best from the checkpoint's loss level
// rather than comparing against a best the rewound run never reached.
func (wd *Watchdog) Reset() {
	wd.best, wd.seen, wd.streak = 0, false, 0
}

// ScanResult reports non-finite parameter counts from a health scan.
type ScanResult struct {
	U, V, B int
	// Sampled is the number of entries inspected; 0 means a full scan.
	Sampled int
}

// Total returns the total number of non-finite entries found.
func (r ScanResult) Total() int { return r.U + r.V + r.B }

func (r ScanResult) String() string {
	kind := "full scan"
	if r.Sampled > 0 {
		kind = fmt.Sprintf("sample of %d", r.Sampled)
	}
	return fmt.Sprintf("%d non-finite entries (%d in U, %d in V, %d in b; %s)",
		r.Total(), r.U, r.V, r.B, kind)
}

// ScanModel fully scans the model's parameters for non-finite entries.
func ScanModel(m *mf.Model) ScanResult {
	u, v, b := m.CountNonFinite()
	return ScanResult{U: u, V: v, B: b}
}

// SampleModel inspects n entries drawn uniformly (with replacement)
// across U, V, and b. It is the cheap periodic complement to the full
// scan at checkpoint gates: poison concentrated in hot rows is caught by
// the per-step risk sentinel first, so the sample's job is the cold rows
// nothing touches.
func SampleModel(m *mf.Model, rng *mathx.RNG, n int) ScanResult {
	u, v, b := m.RawParams()
	total := len(u) + len(v) + len(b)
	if n > total {
		return ScanModel(m)
	}
	res := ScanResult{Sampled: n}
	for s := 0; s < n; s++ {
		idx := rng.Intn(total)
		var x float64
		switch {
		case idx < len(u):
			x = u[idx]
		case idx < len(u)+len(v):
			x = v[idx-len(u)]
		default:
			x = b[idx-len(u)-len(v)]
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			switch {
			case idx < len(u):
				res.U++
			case idx < len(u)+len(v):
				res.V++
			default:
				res.B++
			}
		}
	}
	return res
}
