package core

import (
	"time"

	"clapf/internal/guard"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs/trace"
)

// This file wires the guard subsystem (internal/guard) into the trainer.
// Division of labor: the workers own the hot path — per-step non-finite
// risk sentinels, gradient clipping, sampled loss tracking — and the
// guardState below runs the periodic checks (sampled parameter scan,
// loss watchdog, metric flush) every CheckEvery steps at segment
// barriers, where the model is quiescent for any worker count, so the
// race detector stays clean.

// Compile-time proof that the trainer can be supervised.
var _ guard.Trainee = (*Trainer)(nil)

// guardState is a trainer's installed guard: configuration, watchdog,
// pending trip, and check bookkeeping. Touched only from the coordinating
// goroutine.
type guardState struct {
	cfg     guard.Config
	wd      *guard.Watchdog
	rng     *mathx.RNG // drives sampled scans; independent of training RNGs
	metrics *guard.Metrics

	trip         *guard.Trip
	lastCheck    int    // step of the previous periodic check
	clipsFlushed uint64 // clip count already pushed to metrics

	// tracer, when set (via SetTracer on the owning trainer, in either
	// installation order), attributes the periodic check's latency to the
	// "train.guard_scan" stage.
	tracer *trace.Tracer
}

// newGuardState applies defaults and validates cfg. The scan RNG is
// derived from the training seed but from a separate stream, so
// installing a guard never perturbs the sampling trajectory.
func newGuardState(cfg guard.Config, m *guard.Metrics, seed uint64) (*guardState, error) {
	cfg = cfg.Default()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &guardState{
		cfg:     cfg,
		wd:      guard.NewWatchdog(cfg),
		rng:     mathx.NewRNG(seed ^ 0x6775617264), // "guard"
		metrics: m,
	}, nil
}

// maybeCheck runs the periodic check when the cadence is due.
func (g *guardState) maybeCheck(step int, ewma float64, lossN int, clips uint64, m *mf.Model) {
	if g.trip != nil || step-g.lastCheck < g.cfg.CheckEvery {
		return
	}
	g.check(step, ewma, lossN, clips, m)
}

// flushClips pushes the un-flushed clip delta to the metrics counter.
// Called at check boundaries and at the end of every RunSteps call, so
// short runs (under one check interval) still export their counts.
func (g *guardState) flushClips(clips uint64) {
	if g.metrics != nil && clips > g.clipsFlushed {
		g.metrics.Clips.Add(clips - g.clipsFlushed)
		g.clipsFlushed = clips
	}
}

// check flushes clip deltas, samples the parameters, and feeds the
// watchdog. Runs on the coordinating goroutine with the model quiescent.
func (g *guardState) check(step int, ewma float64, lossN int, clips uint64, m *mf.Model) {
	if g.tracer != nil {
		defer func(t0 time.Time) {
			g.tracer.ObserveStage("train.guard_scan", time.Since(t0))
		}(time.Now())
	}
	g.lastCheck = step
	g.flushClips(clips)
	if !g.cfg.Watchdog {
		return
	}
	if g.cfg.ScanSample > 0 {
		res := guard.SampleModel(m, g.rng, g.cfg.ScanSample)
		if res.Total() > 0 {
			if g.metrics != nil {
				g.metrics.NonFiniteParams.Add(uint64(res.Total()))
			}
			g.trip = &guard.Trip{Step: step, Reason: guard.ReasonNonFiniteParams, Detail: res.String()}
			return
		}
	}
	if tr := g.wd.Observe(step, ewma, lossN); tr != nil {
		g.trip = tr
	}
}

// clear re-arms the guard after a rollback: the trip is dropped, the
// watchdog re-learns its baseline from the restored trajectory, and the
// check cadence restarts from the restored step.
func (g *guardState) clear(step int) {
	g.trip = nil
	g.wd.Reset()
	g.lastCheck = step
}

// isFinite is the hot-path finiteness test: x−x is 0 for finite x and NaN
// for NaN or ±Inf. Cheaper than two math.Is* calls per SGD step.
func isFinite(x float64) bool {
	return x-x == 0
}

// SetGuard installs training guardrails (defaults applied to zero
// fields): with cfg.Watchdog, per-step non-finite sentinels, sampled
// parameter scans, and the loss watchdog; in any case, the clip counter
// flush into m. Checks run at segment barriers (see RunSteps), so the
// hot path only pays for the per-step sentinel and worker-local
// accumulation. Call before training or between RunSteps calls; passing
// metrics m is optional. A second call replaces the guard; the new one
// counts clips from here on.
func (t *Trainer) SetGuard(cfg guard.Config, m *guard.Metrics) error {
	gd, err := newGuardState(cfg, m, t.cfg.Seed)
	if err != nil {
		return err
	}
	gd.lastCheck = t.stepsDone
	// t.clips is a lifetime count and everything before this call has
	// been flushed already (RunSteps flushes on return); starting from 0
	// would export those clips a second time.
	gd.clipsFlushed = t.clips
	gd.tracer = t.tracer
	t.gd = gd
	return nil
}

// GuardTrip returns the pending guard trip, or nil while healthy (or
// unguarded).
func (t *Trainer) GuardTrip() *guard.Trip {
	if t.gd == nil {
		return nil
	}
	return t.gd.trip
}

// ClearGuardTrip re-arms a tripped guard. Call after restoring from a
// checkpoint; the watchdog baseline resets to the restored trajectory.
func (t *Trainer) ClearGuardTrip() {
	if t.gd != nil {
		t.gd.clear(t.stepsDone)
	}
}

// ScaleLearnRate multiplies the learning rate by factor and returns the
// new rate. Rollback recovery uses it for backoff; the scaling survives
// Restore because restored state covers the optimization trajectory, not
// the hyper-parameters. Call only between RunSteps calls (workers read
// the rate lock-free while training).
func (t *Trainer) ScaleLearnRate(factor float64) float64 {
	t.cfg.LearnRate *= factor
	return t.cfg.LearnRate
}

// GradClips returns the lifetime count of norm-clipped updates (merged at
// barriers; exact between RunSteps calls).
func (t *Trainer) GradClips() uint64 { return t.clips }
