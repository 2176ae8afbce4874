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

// SetStatsHook installs fn to fire every `every` steps; segments are cut
// at that boundary, so it fires exactly there, on the training goroutine.
// The per-step loss is only computed while a hook or a watchdog guard is
// installed, so an un-instrumented trainer pays nothing. Passing a nil
// hook removes instrumentation.
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
// guard is (one step in eight), and stays 0 otherwise.
func (t *Trainer) SmoothedLoss() float64 { return t.lossEWMA }

// InstrumentSampler attaches draw-position histograms to the sampler;
// see sampling.TripleSampler.SetDrawHists.
func (t *Trainer) InstrumentSampler(pos, neg *obs.Histogram) {
	t.sampler.SetDrawHists(pos, neg)
}

// foldLoss folds one loss observation into the smoothed loss. During
// warm-up (fewer than lossEWMAWindow observations) this is the exact
// running mean; afterwards it is the EWMA with α = 1/window.
func (t *Trainer) foldLoss(loss float64) {
	t.lossN++
	if t.lossN <= lossEWMAWindow {
		t.lossEWMA += 1 / float64(t.lossN) * (loss - t.lossEWMA)
		return
	}
	t.lossEWMA += 1 / float64(lossEWMAWindow) * (loss - t.lossEWMA)
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

// RegisterMetrics exports the trainer to reg: its lifetime step count
// (clapf_train_steps_total) and throughput (clapf_train_steps_per_sec),
// updated after every segment.
func (t *Trainer) RegisterMetrics(reg *obs.Registry) {
	t.stepsTotal = reg.NewCounter("clapf_train_steps_total", "SGD updates applied.")
	t.stepsRate = reg.NewGauge("clapf_train_steps_per_sec", "Lifetime SGD throughput.")
}
