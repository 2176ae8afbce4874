// Package core implements the paper's contribution: Collaborative
// List-and-Pairwise Filtering (CLAPF). Both instantiations optimize, by
// SGD over a matrix-factorization predictor, the joint probability of two
// ranking pairs (Eqs. 15–21):
//
//	CLAPF-MAP:  R = λ(f_uk − f_ui) + (1−λ)(f_ui − f_uj)
//	CLAPF-MRR:  R = λ(f_ui − f_uk) + (1−λ)(f_ui − f_uj)
//
// with i, k observed items of user u, j an unobserved item, and λ the
// list-vs-pairwise trade-off. The per-step objective is
//
//	f(u, S) = −ln σ(R) + (α_u/2)‖U_u‖² + (α_v/2)Σ‖V_t‖² + (β_v/2)Σ b_t²
//
// minimized by Θ ← Θ − γ ∂f/∂Θ (Eq. 22). At λ = 0 both variants reduce
// exactly to BPR. R is linear in the item scores, and so are the risks of
// BPR, MPR and the CLAPF-Multi extension: one Trainer (this file) loops
// one step (step.go) for all of them, and an Objective (objective.go)
// says which items a step touches and with which coefficients.
package core

import (
	"context"
	"fmt"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/guard"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/obs/trace"
	"clapf/internal/sampling"
)

// Config parameterizes a trainer. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// Objective is what the trainer optimizes (objective.go). Nil means
	// the paper's CLAPF, described by Variant, Lambda and Sampler below;
	// any other objective ignores those three.
	Objective Objective
	// Variant selects CLAPF-MAP or CLAPF-MRR.
	Variant sampling.Objective
	// Lambda is the trade-off λ ∈ [0, 1] between the listwise pair (λ) and
	// the pairwise term (1−λ). λ = 0 reduces CLAPF to BPR.
	Lambda float64
	// LearnRate is the SGD step size γ.
	LearnRate float64
	// RegUser, RegItem, RegBias are α_u, α_v, β_v.
	RegUser float64
	RegItem float64
	RegBias float64
	// Dim is the latent dimensionality d (the paper fixes 20).
	Dim int
	// InitStd is the factor initialization scale.
	InitStd float64
	// ClipNorm, when positive, bounds the L2 norm of each update's
	// data-term gradient: the Eq. 23 multiplier g is scaled down whenever
	// ‖(1−σ(R))·∂R/∂Θ‖ would exceed ClipNorm, leaving update directions
	// untouched. The regularization term is excluded — it contracts
	// toward zero and cannot diverge. 0 disables clipping.
	ClipNorm float64
	// UseBias enables the per-item bias b_i of the predictor.
	UseBias bool
	// Steps is the total number of SGD updates.
	Steps int
	// Sampler configures triple sampling; Sampler.Objective is forced to
	// Variant so the DSS direction always matches the loss.
	Sampler sampling.TripleConfig
	// Seed drives all randomness (init and sampling).
	Seed uint64
}

// DefaultConfig returns the paper's baseline hyper-parameters for the given
// variant: d = 20, γ = 0.05, α = β = 0.01, λ = 0.4, uniform sampling, and a
// step budget of 30 passes over the given number of training pairs.
func DefaultConfig(variant sampling.Objective, trainPairs int) Config {
	return Config{
		Variant:   variant,
		Lambda:    0.4,
		LearnRate: 0.05,
		RegUser:   0.01,
		RegItem:   0.01,
		RegBias:   0.01,
		Dim:       20,
		InitStd:   0.1,
		UseBias:   true,
		Steps:     30 * trainPairs,
	}
}

// objective resolves the nil default.
func (c Config) objective() Objective {
	if c.Objective != nil {
		return c.Objective
	}
	return clapf{variant: c.Variant, lambda: c.Lambda, sampler: c.Sampler}
}

// Validate reports the first problem with the configuration, the
// objective's own parameters included.
func (c Config) Validate() error {
	for _, f := range []struct {
		name  string
		value float64
	}{
		{"LearnRate", c.LearnRate},
		{"RegUser", c.RegUser},
		{"RegItem", c.RegItem},
		{"RegBias", c.RegBias},
		{"InitStd", c.InitStd},
		{"ClipNorm", c.ClipNorm},
	} {
		if err := finite(f.name, f.value); err != nil {
			return err
		}
	}
	if err := c.objective().Validate(); err != nil {
		return err
	}
	switch {
	case c.LearnRate <= 0:
		return fmt.Errorf("core: LearnRate = %v, want > 0", c.LearnRate)
	case c.RegUser < 0 || c.RegItem < 0 || c.RegBias < 0:
		return fmt.Errorf("core: negative regularization")
	case c.ClipNorm < 0:
		return fmt.Errorf("core: ClipNorm = %v, want >= 0", c.ClipNorm)
	case c.Dim <= 0:
		return fmt.Errorf("core: Dim = %d, want > 0", c.Dim)
	case c.InitStd < 0:
		return fmt.Errorf("core: InitStd = %v, want >= 0", c.InitStd)
	case c.Steps < 0:
		return fmt.Errorf("core: Steps = %d, want >= 0", c.Steps)
	}
	return nil
}

// Trainer learns a model by looping the Eq. 22 step (step.go) over the
// steps its objective draws (objective.go). It steps the model in place
// on the caller's goroutine, so identically seeded runs are
// bit-identical. A RunSteps budget is cut into segments wherever the
// stats hook or the guard check falls due; both run between segments.
// The sampler rebuilds its own rank lists as it draws.
type Trainer struct {
	cfg     Config
	model   *mf.Model
	sampler Sampler               // the bound objective
	rng     *mathx.RNG            // record selection
	pairs   []dataset.Interaction // trainable (u, i) records
	kern    *Kernel
	items   [maxStepItems]int32 // the step in flight, filled by sampler.Draw

	stepsDone int
	busy      time.Duration // lifetime time spent inside segments

	// Guardrails (see guarded.go); nil until SetGuard installs them.
	gd    *guardState
	clips uint64 // lifetime norm-clipped updates (counted whenever ClipNorm > 0)

	// Telemetry (see stats.go).
	gradSum      float64 // Σ of Eq. 23's scalar 1−σ(R) since the last read
	gradN        int
	lossEWMA     float64
	lossN        int
	lossTick     uint64 // 1-in-8 loss sampling under a hook-less watchdog
	hook         StatsHook
	hookEvery    int
	trainStart   time.Time
	lastHookTime time.Time
	lastHookStep int

	// Optional obs export (RegisterMetrics), updated after each segment.
	stepsTotal *obs.Counter
	stepsRate  *obs.Gauge

	// Tracing (see trace.go); nil until SetTracer attaches a tracer, so
	// the bare loop pays one nil check per step.
	tracer    *trace.Tracer
	stages    *stageTimers
	stageTick uint64 // sampled step-phase timing
}

// NewTrainer validates the configuration and prepares a trainer over the
// training split. Model initialization takes the seed's first split, the
// objective's sampler the next ones, and the records are drawn from what
// is left of the root stream.
func NewTrainer(cfg Config, train *dataset.Dataset) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train == nil {
		return nil, fmt.Errorf("core: nil training data")
	}
	objective := cfg.objective()
	pairs, err := sampling.TrainableRecords(train, objective.MinUnobserved())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rng := mathx.NewRNG(cfg.Seed)
	model, err := NewModel(train, cfg.Dim, cfg.UseBias, cfg.InitStd, rng.Split())
	if err != nil {
		return nil, err
	}
	sampler, err := objective.Bind(train, model, rng)
	if err != nil {
		return nil, err
	}
	return &Trainer{cfg: cfg, model: model, sampler: sampler, rng: rng, pairs: pairs, kern: NewKernel(model)}, nil
}

// NewParallelTrainer is NewTrainer; numWorkers is ignored. It survives
// only because the frozen benchmark/ calls it, and goes at the next
// benchmark re-cut (ROADMAP).
func NewParallelTrainer(cfg Config, train *dataset.Dataset, numWorkers int) (*Trainer, error) {
	return NewTrainer(cfg, train)
}

// Model returns the live model; it satisfies eval.Scorer.
func (t *Trainer) Model() *mf.Model { return t.model }

// StepsDone returns the number of SGD updates applied so far.
func (t *Trainer) StepsDone() int { return t.stepsDone }

// GradMagnitude returns the mean of the multiplicative gradient scalar
// 1−σ(R) (Eq. 23) since the last call, and resets the accumulator. A
// value near zero means sampled triples carry no learning signal — the
// gradient-vanishing regime DSS is designed to escape.
func (t *Trainer) GradMagnitude() float64 {
	if t.gradN == 0 {
		return 0
	}
	m := t.gradSum / float64(t.gradN)
	t.gradSum, t.gradN = 0, 0
	return m
}

// Run performs all remaining configured steps.
func (t *Trainer) Run() {
	t.RunSteps(t.cfg.Steps - t.stepsDone)
}

// Step draws one record and its step and applies Eq. 22. It is
// RunSteps(1) and pays that call's bookkeeping every time; loops should
// hand their whole budget to RunSteps.
func (t *Trainer) Step() { t.RunSteps(1) }

// RunSteps performs n SGD updates. A tripped guard stops the loop early;
// the caller observes the trip via GuardTrip.
func (t *Trainer) RunSteps(n int) {
	if n <= 0 {
		return
	}
	if t.hook != nil && t.trainStart.IsZero() {
		now := time.Now()
		t.trainStart, t.lastHookTime, t.lastHookStep = now, now, t.stepsDone
	}
	// With a tracer attached the whole call is one "train.batch" trace
	// (tail-kept when the guard trips); segments and hook work become
	// child spans, so a slow batch in the flight recorder shows which
	// phase ate the time.
	ctx := context.Background()
	var batch *trace.Trace
	if t.tracer != nil {
		ctx, batch = t.tracer.StartTrace(ctx, "train.batch")
	}
	for n > 0 && t.GuardTrip() == nil {
		// Cut the segment at whichever boundary is due first, so the hook
		// and the guard check land exactly on their cadence.
		seg := n
		if t.hook != nil {
			if due := t.hookEvery - (t.stepsDone - t.lastHookStep); due < seg {
				seg = due
			}
		}
		if t.gd != nil {
			if due := t.gd.cfg.CheckEvery - (t.stepsDone - t.gd.lastCheck); due < seg {
				seg = due
			}
		}
		if seg <= 0 { // boundary already due; settle it before running more
			seg = 1
		}
		t.runSegment(ctx, seg)
		n -= seg

		if t.hook != nil && t.stepsDone-t.lastHookStep >= t.hookEvery {
			sp := trace.StartSpanNoCtx(ctx, "train.hook")
			t.fireHook()
			sp.End()
		}
		if t.gd != nil {
			// The check itself reports as the "train.guard_scan" stage
			// (see guardState.check), so no span here.
			t.gd.maybeCheck(t.stepsDone, t.lossEWMA, t.lossN, t.clips, t.model)
		}
	}
	if t.gd != nil {
		t.gd.flushClips(t.clips)
		if t.gd.trip != nil {
			batch.MarkError()
		}
	}
	batch.Finish(0, 0)
}

// runSegment applies up to seg steps, as the "train.segment" span; a trip
// ends it early (the tripped step counts, its update was not applied).
func (t *Trainer) runSegment(ctx context.Context, seg int) {
	sp := trace.StartSpanNoCtx(ctx, "train.segment")
	start, from := time.Now(), t.stepsDone
	for t.stepsDone-from < seg && t.GuardTrip() == nil {
		t.stepsDone++
		t.step()
	}
	t.busy += time.Since(start)
	if t.stepsTotal != nil {
		t.stepsTotal.Add(uint64(t.stepsDone - from))
		if secs := t.busy.Seconds(); secs > 0 {
			t.stepsRate.Set(float64(t.stepsTotal.Value()) / secs)
		}
	}
	sp.End()
}

// step draws one record, has the objective turn it into item rows and a
// coefficient vector, and applies the Eq. 22 step for R = Σ_t c_t·f_ut.
// Everything around the kernel's arithmetic — the non-finite sentinel,
// the Eq. 23 scalar's mean, loss tracking, clip counting, sampled phase
// timing — is attached here, once, for every objective.
func (t *Trainer) step() {
	var timedAt time.Time
	timed := false
	if t.stages != nil {
		if t.stageTick&(stageSampleEvery-1) == 0 {
			timed = true
			timedAt = time.Now()
		}
		t.stageTick++
	}
	rec := t.pairs[t.rng.Intn(len(t.pairs))]
	coef := t.sampler.Draw(rec.User, rec.Item, t.items[:])
	if timed {
		timedAt = observePhase(t.stages.sample, timedAt)
	}

	r := t.kern.Risk(rec.User, t.items[:len(coef)], coef)

	watchdog := t.gd != nil && t.gd.cfg.Watchdog
	if watchdog && !isFinite(r) {
		// Applying this update would spread the poison to every item row
		// of the step; record the trip and leave the parameters as they
		// are.
		t.gd.trip = &guard.Trip{Step: t.stepsDone, Reason: guard.ReasonNonFiniteRisk,
			Detail: fmt.Sprintf("risk R = %v for user %d", r, rec.User)}
		return
	}

	g := 1 - mathx.Sigmoid(r) // Eq. 23's multiplicative scalar
	t.gradSum += g
	t.gradN++
	trackLoss := t.hook != nil
	if !trackLoss && watchdog {
		// The watchdog needs the loss curve but not per-step resolution:
		// a 1-in-8 sample keeps the average faithful while sparing the
		// unhooked hot path most of the LogSigmoid cost.
		t.lossTick++
		trackLoss = t.lossTick&7 == 0
	}
	if trackLoss {
		t.foldLoss(-mathx.LogSigmoid(r))
	}
	if timed {
		timedAt = observePhase(t.stages.risk, timedAt)
	}

	if cn := t.cfg.ClipNorm; cn > 0 {
		var clipped bool
		if g, clipped = t.kern.Clip(g, cn); clipped {
			t.clips++
		}
	}
	t.kern.Apply(g, Rates{Learn: t.cfg.LearnRate, RegUser: t.cfg.RegUser, RegItem: t.cfg.RegItem, RegBias: t.cfg.RegBias})
	if timed {
		observePhase(t.stages.update, timedAt)
	}
}

// TripleLoss returns the tentative objective f(u, S) of §4.3 for one
// drawn step under the current model,
//
//	−ln σ(Σ_t c_t·f_ut) + (α_u/2)‖U_u‖² + Σ_t ((α_v/2)‖V_t‖² + (β_v/2)b_t²),
//
// the quantity Step decreases in expectation whatever the objective. A
// zero-coefficient repeat of an earlier item (k aliasing i) is the same
// vector and is regularized once. Exposed for gradient-check tests and
// loss-curve instrumentation.
func (t *Trainer) TripleLoss(u int32, items []int32, coef []float64) float64 {
	var r float64
	loss := 0.5 * t.cfg.RegUser * mathx.Norm2Sq(t.model.UserFactors(u))
rows:
	for n, it := range items {
		r += coef[n] * t.model.Score(u, it)
		if coef[n] == 0 {
			for _, earlier := range items[:n] {
				if earlier == it {
					continue rows
				}
			}
		}
		loss += 0.5 * t.cfg.RegItem * mathx.Norm2Sq(t.model.ItemFactors(it))
		bias := t.model.Bias(it)
		loss += 0.5 * t.cfg.RegBias * bias * bias
	}
	return loss - mathx.LogSigmoid(r)
}
