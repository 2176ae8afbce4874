package core

import (
	"time"

	"clapf/internal/obs"
	"clapf/internal/obs/trace"
)

// Training-loop latency attribution. Two granularities:
//
//   - Batch/segment level: each RunSteps call runs under a "train.batch"
//     trace with "train.segment" (the stepping between two boundaries)
//     and "train.hook" spans, so the flight recorder shows where a slow
//     batch went. The periodic guard check reports as the "train.guard_scan"
//     stage and checkpoint writes as "train.checkpoint" (cmd/clapf-train).
//
//   - Step level, sampled: timing every SGD step would double its cost,
//     so 1-in-stageSampleEvery steps measure their three phases —
//     "train.sample" (record pick + triple draw), "train.risk" (factor
//     loads, risk R, sentinel, loss), "train.update" (gradient apply) —
//     straight into the stage histogram. The untimed rest pay one
//     branch; bucket counts scale by the sampling factor but the latency
//     *distribution* is unbiased.
//
// Timing never changes the math: the instrumented paths call the same
// functions in the same order, so traced and untraced runs follow
// bit-identical trajectories (the serial/golden-metric tests rely on
// this).

// stageSampleEvery is the step-phase sampling stride (power of two so
// the cadence test is a mask). 256 keeps the per-step tax — four clock
// reads amortized over the stride — inside the <2% tracing budget while
// still collecting hundreds of phase samples per million steps.
const stageSampleEvery = 256

// stageTimers caches the per-phase histogram children so a timed step
// observes them without a vec map lookup.
type stageTimers struct {
	sample *obs.Histogram
	risk   *obs.Histogram
	update *obs.Histogram
}

func newStageTimers(t *trace.Tracer) *stageTimers {
	if t == nil {
		return nil
	}
	return &stageTimers{
		sample: t.StageHistogram("train.sample"),
		risk:   t.StageHistogram("train.risk"),
		update: t.StageHistogram("train.update"),
	}
}

// SetTracer attaches tr to the trainer: RunSteps batches become traces,
// sampled step phases feed the stage histogram, and the guard (whenever
// installed, before or after this call) reports its scan latency. nil
// detaches. Call between RunSteps calls only.
func (t *Trainer) SetTracer(tr *trace.Tracer) {
	t.tracer = tr
	t.stages = newStageTimers(tr)
	if t.gd != nil {
		t.gd.tracer = tr
	}
}

// observePhase records one sampled phase duration ending now, returning
// now so the caller can chain the next phase without a second clock
// read.
func observePhase(h *obs.Histogram, since time.Time) time.Time {
	now := time.Now()
	h.Observe(now.Sub(since).Seconds())
	return now
}
