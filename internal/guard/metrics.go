package guard

import "clapf/internal/obs"

// Metrics is the guard subsystem's obs export. All fields are plain
// counters/gauges updated between segments (check boundaries, the end of
// a RunSteps call, rollbacks), never from inside the SGD hot path —
// trainers accumulate locally and flush deltas here.
type Metrics struct {
	// Rollbacks counts automatic checkpoint rollbacks
	// (clapf_train_rollbacks_total).
	Rollbacks *obs.Counter
	// NonFiniteParams counts non-finite parameter entries found by health
	// scans (clapf_nonfinite_params_total). Sampled and full scans both
	// feed it, so the count is a detection tally, not a census.
	NonFiniteParams *obs.Counter
	// Clips counts SGD updates whose data-term gradient was norm-clipped
	// (clapf_grad_clip_total).
	Clips *obs.Counter
	// Health is 1 while the guarded run is healthy and 0 from the moment
	// a guard trips until recovery completes (clapf_train_health).
	Health *obs.Gauge
}

// NewMetrics registers the guard metrics on reg and returns them with the
// health gauge initialized to healthy.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		Rollbacks: reg.NewCounter("clapf_train_rollbacks_total",
			"Automatic rollbacks to the last good checkpoint after a tripped training guard."),
		NonFiniteParams: reg.NewCounter("clapf_nonfinite_params_total",
			"Non-finite (NaN/Inf) parameter entries found by training health scans."),
		Clips: reg.NewCounter("clapf_grad_clip_total",
			"SGD updates whose data-term gradient exceeded -clip-norm and was scaled down."),
		Health: reg.NewGauge("clapf_train_health",
			"1 while the guarded training run is healthy, 0 from guard trip until recovery."),
	}
	m.Health.Set(1)
	return m
}
