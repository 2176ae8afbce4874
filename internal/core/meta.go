package core

import (
	"fmt"

	"clapf/internal/mf"
	"clapf/internal/sampling"
	"clapf/internal/store"
)

// This file maps trainer snapshots to and from store.Meta checkpoint
// trailers, so every checkpoint producer/consumer (clapf-train, the
// guard supervisor, tests) shares one encoding. MetaSnapshot fills only
// the trainer-owned fields; contextual fields — Epoch, TotalSteps,
// DataFingerprint, Hyper — belong to the caller.
//
// The trainer's two streams go in the top-level RNG/SamplerRNG/
// SamplerSteps fields. SamplerRNG holds four words per stream the
// objective's sampler owns: CLAPF's and BPR's one stream is the shape it
// always had, MPR and CLAPF-Multi write eight.

// MetaSnapshot captures the trainer's resumable state as a checkpoint
// trailer. Call between RunSteps calls.
func (t *Trainer) MetaSnapshot() *store.Meta {
	st := t.Snapshot()
	return &store.Meta{
		Step:         st.Step,
		RNG:          st.RNG[:],
		SamplerRNG:   st.Sampler.RNG,
		SamplerSteps: st.Sampler.Steps,
		LossEWMA:     st.LossEWMA,
		LossN:        st.LossN,
	}
}

// RestoreFromMeta rewinds the trainer to a checkpoint: parameters from m,
// schedule/RNG/loss state from meta. It validates the trailer's shape
// (RNG word counts) and refuses a trailer written by a multi-worker run;
// dataset and hyper-parameter compatibility are the caller's concern —
// the trailer carries them, the trainer cannot judge them.
func (t *Trainer) RestoreFromMeta(m *mf.Model, meta *store.Meta) error {
	if meta == nil {
		return fmt.Errorf("core: nil checkpoint metadata")
	}
	if n := len(meta.Workers); n > 0 {
		return fmt.Errorf("core: checkpoint is from a run with %d workers; multi-worker checkpoints are no longer supported", n)
	}
	if len(meta.RNG) != 4 {
		return fmt.Errorf("core: rng has %d state words, want 4", len(meta.RNG))
	}
	// The sampler checks its own word count: four per stream it owns.
	return t.Restore(TrainerState{
		Step:     meta.Step,
		RNG:      [4]uint64(meta.RNG),
		Sampler:  sampling.SamplerState{RNG: meta.SamplerRNG, Steps: meta.SamplerSteps},
		LossEWMA: meta.LossEWMA,
		LossN:    meta.LossN,
	}, m)
}
