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
// The trailer has two shapes, both older than the one-trainer design and
// both kept so existing checkpoint directories resume: a one-worker run
// writes its streams in the top-level RNG/SamplerRNG/SamplerSteps fields,
// a run with several workers writes Workers[] and SinceRefresh. SamplerRNG
// holds four words per stream the objective's sampler owns: CLAPF's and
// BPR's one stream is the shape it always had, MPR and CLAPF-Multi write
// eight.

// MetaSnapshot captures the trainer's resumable state as a checkpoint
// trailer. Call between RunSteps calls.
func (t *Trainer) MetaSnapshot() *store.Meta {
	st := t.Snapshot()
	meta := &store.Meta{Step: st.Step, LossEWMA: st.LossEWMA, LossN: st.LossN}
	streams := make([]store.WorkerMeta, len(st.Workers))
	for i, w := range st.Workers {
		streams[i] = store.WorkerMeta{
			RNG:          append([]uint64(nil), w.RNG[:]...),
			SamplerRNG:   w.Sampler.RNG,
			SamplerSteps: w.Sampler.Steps,
		}
	}
	if len(streams) == 1 {
		meta.RNG, meta.SamplerRNG, meta.SamplerSteps = streams[0].RNG, streams[0].SamplerRNG, streams[0].SamplerSteps
		return meta
	}
	meta.SinceRefresh = st.SinceRefresh
	meta.Workers = streams
	return meta
}

// RestoreFromMeta rewinds the trainer to a checkpoint: parameters from m,
// schedule/RNG/loss state from meta. It validates the trailer's shape
// (worker count, RNG word counts) — this is the one place a worker-count
// mismatch is diagnosed; dataset and hyper-parameter compatibility are
// the caller's concern — the trailer carries them, the trainer cannot
// judge them.
func (t *Trainer) RestoreFromMeta(m *mf.Model, meta *store.Meta) error {
	if meta == nil {
		return fmt.Errorf("core: nil checkpoint metadata")
	}
	streams, from := meta.Workers, "parallel"
	if len(streams) == 0 {
		streams = []store.WorkerMeta{{RNG: meta.RNG, SamplerRNG: meta.SamplerRNG, SamplerSteps: meta.SamplerSteps}}
		from = "serial"
	}
	if len(streams) != len(t.workers) {
		return fmt.Errorf("core: checkpoint is from a %s run with %d worker(s), this trainer has %d; the worker count must match",
			from, len(streams), len(t.workers))
	}
	st := TrainerState{
		Step:         meta.Step,
		SinceRefresh: meta.SinceRefresh,
		LossEWMA:     meta.LossEWMA,
		LossN:        meta.LossN,
		Workers:      make([]WorkerState, len(streams)),
	}
	for i, wm := range streams {
		rng, err := rngWords(wm.RNG, fmt.Sprintf("worker %d rng", i))
		if err != nil {
			return err
		}
		// The sampler checks its own word count: four per stream it owns.
		st.Workers[i] = WorkerState{
			RNG:     rng,
			Sampler: sampling.SamplerState{RNG: wm.SamplerRNG, Steps: wm.SamplerSteps},
		}
	}
	return t.Restore(st, m)
}

// rngWords converts a checkpoint's RNG word list into generator state.
func rngWords(words []uint64, field string) ([4]uint64, error) {
	var s [4]uint64
	if len(words) != 4 {
		return s, fmt.Errorf("core: %s has %d state words, want 4", field, len(words))
	}
	copy(s[:], words)
	return s, nil
}
