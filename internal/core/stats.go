package core

import (
	"fmt"
	"time"

	"clapf/internal/obs"
)

// TrainStats is one telemetry snapshot, delivered to a stats hook every
// reporting interval. It is the trainer-side feedback loop the DSS /
// pairwise-SGD literature says to watch first: a smoothed loss curve and
// the gradient scalar reveal the vanishing-gradient regime long before
// ranking metrics move.
type TrainStats struct {
	// Step is the number of SGD updates completed so far.
	Step int
	// TotalSteps is the configured step budget.
	TotalSteps int
	// SmoothedLoss is an exponentially weighted moving average of the
	// per-step logistic loss −ln σ(R) (the data term of f(u, S); the
	// regularizer is omitted as it only shifts the curve).
	SmoothedLoss float64
	// GradMag is the mean multiplicative gradient scalar 1−σ(R) (Eq. 23)
	// over the interval — near zero means sampled triples carry no
	// learning signal.
	GradMag float64
	// StepsPerSec is the SGD throughput over the interval.
	StepsPerSec float64
	// Elapsed is the wall-clock time since the first instrumented step.
	Elapsed time.Duration
}

// StatsHook receives TrainStats snapshots; it runs on the training
// goroutine, so keep it cheap (log, append, publish to a gauge).
type StatsHook func(TrainStats)

// lossEWMAWindow bounds the effective smoothing window: early on the
// average is a plain running mean (exact warm-up), after ~window steps it
// behaves like an EWMA with α = 1/window.
const lossEWMAWindow = 1024

// SetStatsHook installs fn to fire at the first barrier at or after every
// `every` aggregate steps; segments are cut at that boundary, so it fires
// exactly there. The hook runs on the coordinating goroutine while all
// workers are quiescent. The per-step loss is only computed while a hook
// or a watchdog guard is installed, so an un-instrumented trainer pays
// nothing. Passing a nil hook removes instrumentation.
func (t *Trainer) SetStatsHook(every int, fn StatsHook) error {
	if fn != nil && every <= 0 {
		return fmt.Errorf("core: stats interval = %d, want > 0", every)
	}
	t.hook = fn
	t.hookEvery = every
	t.trainStart = time.Time{} // re-arm the clock on the next RunSteps
	return nil
}

// SmoothedLoss returns the smoothed per-step logistic loss −ln σ(R). It
// is tracked while a stats hook is installed (every step) or a watchdog
// guard is (one step in eight), and stays 0 otherwise. One worker folds
// each observation as it happens; several workers' observations are
// folded as segment means at barriers.
func (t *Trainer) SmoothedLoss() float64 { return t.lossEWMA }

// InstrumentSampler attaches draw-position histograms to every worker's
// sampler (histograms are atomic, so concurrent observation is safe);
// see sampling.TripleSampler.SetDrawHists.
func (t *Trainer) InstrumentSampler(pos, neg *obs.Histogram) {
	t.sampler.SetDrawHists(pos, neg)
	for _, w := range t.workers {
		w.sampler.SetDrawHists(pos, neg)
	}
}

// foldLoss folds n loss observations summing to sum into the smoothed
// loss. During warm-up (fewer than lossEWMAWindow observations) this is
// the exact running mean; afterwards a batch folds with weight n/window,
// which for n = 1 is the per-step EWMA with α = 1/window.
func (t *Trainer) foldLoss(sum float64, n int) {
	if n == 0 {
		return
	}
	mean := sum / float64(n)
	t.lossN += n
	if t.lossN <= lossEWMAWindow {
		t.lossEWMA += float64(n) / float64(t.lossN) * (mean - t.lossEWMA)
		return
	}
	alpha := float64(n) / float64(lossEWMAWindow)
	if alpha > 1 {
		alpha = 1
	}
	t.lossEWMA += alpha * (mean - t.lossEWMA)
}

// fireHook emits one TrainStats snapshot.
func (t *Trainer) fireHook() {
	now := time.Now()
	steps := t.stepsDone - t.lastHookStep
	secs := now.Sub(t.lastHookTime).Seconds()
	sps := 0.0
	if secs > 0 {
		sps = float64(steps) / secs
	}
	stats := TrainStats{
		Step:         t.stepsDone,
		TotalSteps:   t.cfg.Steps,
		SmoothedLoss: t.lossEWMA,
		GradMag:      t.GradMagnitude(), // the interval owns the accumulator
		StepsPerSec:  sps,
		Elapsed:      now.Sub(t.trainStart),
	}
	t.lastHookTime = now
	t.lastHookStep = t.stepsDone
	t.hook(stats)
}

// RegisterMetrics exports the trainer to reg: clapf_train_workers, and
// per-worker lifetime step counts and throughput
// (clapf_train_worker_steps_total / clapf_train_worker_steps_per_sec,
// labeled by worker id). Values update at each barrier.
func (t *Trainer) RegisterMetrics(reg *obs.Registry) {
	n := len(t.workers)
	reg.NewGaugeFunc("clapf_train_workers",
		"Hogwild training workers in the current run.",
		func() float64 { return float64(n) })
	t.stepsVec = reg.NewCounterVec("clapf_train_worker_steps_total",
		"SGD updates applied, per worker.", "worker")
	t.spsVec = reg.NewGaugeVec("clapf_train_worker_steps_per_sec",
		"Lifetime SGD throughput, per worker.", "worker")
}

// WorkerStat reports one worker's lifetime throughput.
type WorkerStat struct {
	ID          int
	Pairs       int           // records in this worker's user shard
	Steps       int           // SGD updates applied
	Busy        time.Duration // time spent inside training segments
	StepsPerSec float64       // Steps / Busy
}

// WorkerStats returns per-worker lifetime counters; safe to call between
// RunSteps calls.
func (t *Trainer) WorkerStats() []WorkerStat {
	out := make([]WorkerStat, len(t.workers))
	for i, w := range t.workers {
		sps := 0.0
		if secs := w.busy.Seconds(); secs > 0 {
			sps = float64(w.steps) / secs
		}
		out[i] = WorkerStat{ID: w.id, Pairs: len(w.pairs), Steps: w.steps, Busy: w.busy, StepsPerSec: sps}
	}
	return out
}
