package core

import (
	"fmt"
	"time"

	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// TrainerState is the resumable non-parameter state of a Trainer: where
// the SGD schedule stands, the record stream, the sampler's streams, and
// the loss-smoothing accumulator. Together with the model parameters it
// is everything a checkpoint needs to continue training as if the
// process had never died (store.Meta carries this state, the store
// payload the parameters).
//
// What resumes bit-identically and what does not: with the Uniform
// sampler a restored run replays exactly the SGD trajectory of the
// uninterrupted one (parameters are serialized as raw float64 bits and
// every RNG stream is positioned exactly). Rank-aware samplers (DSS and
// the ablations) rebuild their ranking lists from the restored parameters
// at resume time, whereas the uninterrupted run would still be using
// lists built at the previous refresh boundary — statistically
// equivalent, not bit-identical.
type TrainerState struct {
	// Step is the number of SGD updates already applied.
	Step int
	// RNG is the record-selection RNG state.
	RNG [4]uint64
	// Sampler is the sampler state (every stream the objective's sampler
	// owns and the step count; rank lists are derived state rebuilt on
	// restore).
	Sampler sampling.SamplerState
	// LossEWMA and LossN restore the smoothed-loss telemetry accumulator.
	LossEWMA float64
	LossN    int
}

// Snapshot captures the trainer's resumable state. The model parameters
// are not included — snapshot them alongside via Model(). Call only
// between RunSteps calls.
func (t *Trainer) Snapshot() TrainerState {
	return TrainerState{
		Step:     t.stepsDone,
		RNG:      t.rng.State(),
		Sampler:  t.sampler.State(),
		LossEWMA: t.lossEWMA,
		LossN:    t.lossN,
	}
}

// Restore rewinds the trainer to a previously captured state: model
// parameters are copied from m (which must match the trainer's shape),
// the RNG streams are repositioned, the step counter and loss telemetry
// pick up where they left off, and rank-aware samplers rebuild their
// lists from the restored parameters. The trainer must have been
// constructed with the same configuration and training data as the one
// that produced the snapshot; Restore validates shape, not
// hyperparameters — callers hold the checkpoint metadata for that.
func (t *Trainer) Restore(st TrainerState, m *mf.Model) error {
	if st.Step < 0 {
		return fmt.Errorf("core: restore step %d < 0", st.Step)
	}
	if err := t.model.SetFrom(m); err != nil {
		return err
	}
	t.rng.SetState(st.RNG)
	if err := t.sampler.Restore(st.Sampler); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	t.stepsDone = st.Step
	t.lossEWMA = st.LossEWMA
	t.lossN = st.LossN
	t.gradSum, t.gradN = 0, 0
	// Re-arm the telemetry clock so Elapsed and steps/sec restart from the
	// resume point instead of spanning the outage.
	t.trainStart = time.Time{}
	t.lastHookStep = st.Step
	if t.gd != nil {
		t.gd.lastCheck = st.Step // restart the guard cadence from here
	}
	return nil
}
