package core

import (
	"fmt"
	"time"

	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// WorkerState is one worker's resumable state inside a TrainerState.
type WorkerState struct {
	// RNG is the worker's record-selection RNG state.
	RNG [4]uint64
	// Sampler is the worker's sampler state (every stream its objective's
	// sampler owns and the step count; rank lists are derived state
	// rebuilt on restore).
	Sampler sampling.SamplerState
}

// TrainerState is the resumable non-parameter state of a Trainer: where
// the SGD schedule stands, every worker's RNG streams, the barrier
// refresh position, and the loss-smoothing accumulator. Together with the
// model parameters it is everything a checkpoint needs to continue
// training as if the process had never died (store.Meta carries this
// state, the store payload the parameters).
//
// What resumes bit-identically and what does not: with one worker and the
// Uniform sampler a restored run replays exactly the SGD trajectory of
// the uninterrupted one (parameters are serialized as raw float64 bits
// and both RNG streams are positioned exactly). Rank-aware samplers (DSS
// and the ablations) rebuild their ranking lists from the restored
// parameters at resume time, whereas the uninterrupted run would still be
// using lists built at the previous refresh boundary — statistically
// equivalent, not bit-identical. With several workers the continuation is
// statistically equivalent in any case (the write interleaving is not
// part of any state).
type TrainerState struct {
	// Step is the number of SGD updates already applied.
	Step int
	// SinceRefresh is the barrier-refresh cadence position (several
	// workers only; a lone worker's sampler keeps its own count).
	SinceRefresh int
	// Workers holds one entry per worker, in worker order.
	Workers []WorkerState
	// LossEWMA and LossN restore the smoothed-loss telemetry accumulator.
	LossEWMA float64
	LossN    int
}

// Snapshot captures the trainer's resumable state. The model parameters
// are not included — snapshot them alongside via Model(). Call only
// between RunSteps calls (workers quiescent).
func (t *Trainer) Snapshot() TrainerState {
	st := TrainerState{
		Step:         t.stepsDone,
		SinceRefresh: t.sinceRefresh,
		Workers:      make([]WorkerState, len(t.workers)),
		LossEWMA:     t.lossEWMA,
		LossN:        t.lossN,
	}
	for i, w := range t.workers {
		st.Workers[i] = WorkerState{RNG: w.rng.State(), Sampler: w.sampler.State()}
	}
	return st
}

// Restore rewinds the trainer to a previously captured state: model
// parameters are copied from m (which must match the trainer's shape),
// every worker's RNG streams are repositioned, the step counter and loss
// telemetry pick up where they left off, and rank-aware samplers rebuild
// their lists from the restored parameters. The trainer must have been
// constructed with the same configuration, training data, and worker
// count as the one that produced the snapshot; Restore validates shape,
// not hyperparameters — callers hold the checkpoint metadata for that.
func (t *Trainer) Restore(st TrainerState, m *mf.Model) error {
	if st.Step < 0 {
		return fmt.Errorf("core: restore step %d < 0", st.Step)
	}
	if len(st.Workers) != len(t.workers) {
		return fmt.Errorf("core: restore has %d worker states, trainer has %d workers (worker count must match)",
			len(st.Workers), len(t.workers))
	}
	if err := t.model.SetFrom(m); err != nil {
		return err
	}
	for i, w := range t.workers {
		w.rng.SetState(st.Workers[i].RNG)
		// A lone worker's sampler rebuilds its lists here.
		if err := w.sampler.Restore(st.Workers[i].Sampler); err != nil {
			return fmt.Errorf("core: restore worker %d: %w", i, err)
		}
	}
	if len(t.workers) > 1 {
		t.sampler.Refresh() // views never rebuild: do it for them
	}
	t.stepsDone = st.Step
	t.sinceRefresh = st.SinceRefresh
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
