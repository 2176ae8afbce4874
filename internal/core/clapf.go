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
	"strconv"
	"sync"
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
// steps its objective draws (objective.go), on one worker or on N
// lock-free Hogwild workers.
//
// Users are sharded across workers, so each user row U_u has exactly one
// writer; item factors and biases are shared. One worker owns the whole
// model and steps it in place (Plain access) on the caller's goroutine:
// identically seeded runs are bit-identical. With more workers each one
// reaches item rows through element-wise atomic loads and stores (Atomic
// access), which keeps the rare colliding update well-defined — last
// writer wins per element — without any locking on the hot path. The
// structural argument is the one BPR-style Hogwild trainers rely on: a
// step touches one user row and three of m item rows, and on sparse
// implicit-feedback data two concurrent steps almost never pick the same
// items, so lost updates are vanishingly rare and SGD's noise tolerance
// absorbs them. The exact trajectory then depends on the OS schedule:
// identically seeded multi-worker runs are statistically equivalent, not
// bit-identical (parallel_test.go enforces the equivalence by t-test).
// Workers draw from deterministic per-worker RNG streams split from the
// seed, so everything *except* the write interleaving is reproducible.
//
// Work proceeds in segments separated by barriers, cut wherever the stats
// hook, the guard check or (with several workers) the DSS refresh falls
// due. Between barriers the workers run free; at a barrier the
// coordinator merges telemetry, promotes worker-local guard trips,
// rebuilds the DSS rank lists and fires the hook. Every method other than
// RunSteps, Run and Step may only be called between those calls, when
// every worker is quiescent by construction.
type Trainer struct {
	cfg     Config
	model   *mf.Model
	sampler Sampler // the bound objective; owns whatever is rebuilt at Refresh
	workers []*worker

	stepsDone    int
	sinceRefresh int // aggregate steps since the last barrier refresh (several workers only)

	// Guardrails (see guarded.go); nil until SetGuard installs them.
	// Workers never touch gd's mutable state — they record trips and clip
	// counts locally and the coordinator merges them at barriers.
	gd    *guardState
	clips uint64 // lifetime norm-clipped updates (counted whenever ClipNorm > 0)

	// Telemetry (see stats.go), written only at barriers — or, for the
	// smoothed loss of a one-worker run, by that worker between them.
	gradSum      float64 // Σ of Eq. 23's scalar 1−σ(R) since the last read
	gradN        int
	lossEWMA     float64
	lossN        int
	hook         StatsHook
	hookEvery    int
	trainStart   time.Time
	lastHookTime time.Time
	lastHookStep int

	// Optional obs export (RegisterMetrics), updated at barriers.
	stepsVec *obs.CounterVec
	spsVec   *obs.GaugeVec

	// Tracing (see trace.go); nil until SetTracer attaches a tracer, so
	// the bare loop pays one nil check per step.
	tracer *trace.Tracer
	stages *stageTimers
}

// worker is one training goroutine's state: a user shard, private RNG
// and sampler, a step kernel, and accumulators the coordinator merges at
// each barrier.
type worker struct {
	id      int
	label   string // obs label, strconv.Itoa(id)
	rng     *mathx.RNG
	sampler Sampler
	pairs   []dataset.Interaction // this shard's (u, i) records
	kern    *Kernel
	items   [maxStepItems]int32 // the step in flight, filled by sampler.Draw

	steps int           // lifetime SGD updates
	busy  time.Duration // lifetime time spent inside segments

	seg segment // merged and reset by the coordinator at each barrier

	lossTick  uint64 // 1-in-8 loss sampling under a hook-less watchdog
	stageTick uint64 // sampled step-phase timing (see trace.go)

	// With several workers, each one's two generators live here and the
	// pad keeps whatever the allocator places next a cache line away. As
	// separate 32-byte allocations, one worker's sampler stream and the
	// next worker's record stream could land on one line, and every draw
	// on one core then invalidated it under the other: two-worker steps/s
	// moved by 16 % with the luck of the layout.
	streams [2]mathx.RNG
	_       [64]byte
}

// segment is what one worker accumulates between two barriers.
type segment struct {
	steps   int
	gradSum float64 // Σ of Eq. 23's scalar 1−σ(R)
	gradN   int
	lossSum float64 // unused by a lone worker, which folds per step
	lossN   int
	clips   int
	// trip ends the worker's segment early; the coordinator promotes the
	// first one to the trainer's guard.
	trip *guard.Trip
}

// NewTrainer validates the configuration and prepares a one-worker
// trainer over the training split: the serial, bit-reproducible case.
func NewTrainer(cfg Config, train *dataset.Dataset) (*Trainer, error) {
	return NewParallelTrainer(cfg, train, 1)
}

// NewParallelTrainer validates the configuration and prepares a trainer
// that shards users across numWorkers workers. Model initialization and
// the objective's sampler consume the seed the same way for every worker
// count, so all of them start from the same parameters. One worker draws
// records from the seed's root stream and steps from that sampler, which
// rebuilds its own rank lists as it goes; several workers each get a
// pair of streams split off in worker order and a read-only view of the
// sampler, which the coordinator rebuilds at barriers.
func NewParallelTrainer(cfg Config, train *dataset.Dataset, numWorkers int) (*Trainer, error) {
	if numWorkers < 1 {
		return nil, fmt.Errorf("core: %d workers, want >= 1", numWorkers)
	}
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
	if numWorkers > len(pairs) {
		numWorkers = len(pairs) // more workers than records would idle anyway
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

	t := &Trainer{cfg: cfg, model: model, sampler: sampler}
	t.workers = make([]*worker, numWorkers)
	access := Plain
	if numWorkers > 1 {
		access = Atomic
	}
	for id := range t.workers {
		t.workers[id] = &worker{id: id, label: strconv.Itoa(id), kern: NewKernel(model, access)}
	}
	if numWorkers == 1 {
		w := t.workers[0]
		w.rng, w.sampler, w.pairs = rng, sampler, pairs
		return t, nil
	}
	// Shard users deterministically: walk users in id order, placing each
	// on the worker with the lightest record load so far (ties break to
	// the lowest id). Record-count balance keeps barrier idle time low even
	// under heavy-tailed user activity.
	for len(pairs) > 0 {
		n := 1
		for n < len(pairs) && pairs[n].User == pairs[0].User {
			n++
		}
		best := t.workers[0]
		for _, w := range t.workers[1:] {
			if len(w.pairs) < len(best.pairs) {
				best = w
			}
		}
		best.pairs = append(best.pairs, pairs[:n]...)
		pairs = pairs[n:]
	}
	for _, w := range t.workers {
		w.streams = [2]mathx.RNG{*rng.Split(), *rng.Split()}
		w.rng = &w.streams[0]
		w.sampler = sampler.View(&w.streams[1])
	}
	return t, nil
}

// Model returns the live model; it satisfies eval.Scorer.
func (t *Trainer) Model() *mf.Model { return t.model }

// StepsDone returns the aggregate number of SGD updates applied so far.
func (t *Trainer) StepsDone() int { return t.stepsDone }

// Workers returns the worker count (which may be lower than requested on
// degenerate datasets with fewer trainable records than workers).
func (t *Trainer) Workers() int { return len(t.workers) }

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
// RunSteps(1) and pays that call's barrier bookkeeping every time; loops
// should hand their whole budget to RunSteps.
func (t *Trainer) Step() { t.RunSteps(1) }

// RunSteps performs n aggregate SGD updates and returns once all of them
// have been applied (so the caller always observes a quiescent model).
// Steps are divided among workers in proportion to their shard's record
// count, which keeps sampling record-uniform in expectation. A tripped
// guard stops the loop early; the caller observes the trip via
// GuardTrip.
func (t *Trainer) RunSteps(n int) {
	if n <= 0 {
		return
	}
	if t.hook != nil && t.trainStart.IsZero() {
		now := time.Now()
		t.trainStart, t.lastHookTime, t.lastHookStep = now, now, t.stepsDone
	}
	// With a tracer attached the whole call is one "train.batch" trace
	// (tail-kept when the guard trips); segment, barrier, refresh, and
	// hook work become child spans, so a slow batch in the flight recorder
	// shows which phase ate the time.
	ctx := context.Background()
	var batch *trace.Trace
	if t.tracer != nil {
		ctx, batch = t.tracer.StartTrace(ctx, "train.batch")
	}
	// One worker samples from the sampler that owns the rank lists, and
	// that sampler rebuilds them itself, *before* the draw on which its
	// own step count reaches a multiple of RefreshEvery. Views never
	// rebuild, so with several workers the coordinator does it here,
	// *after* RefreshEvery aggregate steps. Doing both would refresh a
	// one-worker run twice per period and move its trajectory.
	refreshEvery := 0
	if len(t.workers) > 1 {
		refreshEvery = t.sampler.RefreshEvery() // 0: nothing to rebuild
	}
	for n > 0 && t.GuardTrip() == nil {
		// Cut the segment at whichever boundary is due first, so hooks,
		// guard checks and refreshes all land on a quiescent barrier.
		seg := n
		if refreshEvery > 0 && refreshEvery-t.sinceRefresh < seg {
			seg = refreshEvery - t.sinceRefresh
		}
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

		if refreshEvery > 0 && t.sinceRefresh >= refreshEvery {
			sp := trace.StartSpanNoCtx(ctx, "train.refresh")
			t.sampler.Refresh() // workers are quiescent: safe to rebuild
			sp.End()
			t.sinceRefresh = 0
		}
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

// runSegment runs seg steps — inline on one worker, fanned out to
// goroutines on several — and merges telemetry after the join barrier.
// The run-to-join interval is the "train.segment" span; the
// coordinator-side merge that follows is "train.barrier".
func (t *Trainer) runSegment(ctx context.Context, seg int) {
	sp := trace.StartSpanNoCtx(ctx, "train.segment")
	if len(t.workers) == 1 {
		t.workers[0].run(t, seg)
	} else {
		var wg sync.WaitGroup
		for i, quota := range proportionalShares(seg, t.workers) {
			if quota == 0 {
				continue
			}
			wg.Add(1)
			go func(w *worker, quota int) {
				defer wg.Done()
				w.run(t, quota)
			}(t.workers[i], quota)
		}
		wg.Wait()
	}
	sp.End()

	sp = trace.StartSpanNoCtx(ctx, "train.barrier")
	// Merge per-worker accumulators in worker order (deterministic
	// reduction) and refresh the exported metrics.
	var trip *guard.Trip
	for _, w := range t.workers {
		t.stepsDone += w.seg.steps
		if len(t.workers) > 1 {
			t.sinceRefresh += w.seg.steps
		}
		t.gradSum += w.seg.gradSum
		t.gradN += w.seg.gradN
		t.foldLoss(w.seg.lossSum, w.seg.lossN)
		t.clips += uint64(w.seg.clips)
		if t.stepsVec != nil {
			t.stepsVec.With(w.label).Add(uint64(w.seg.steps))
			if secs := w.busy.Seconds(); secs > 0 {
				t.spsVec.With(w.label).Set(float64(w.steps) / secs)
			}
		}
		if trip == nil {
			trip = w.seg.trip
		}
		w.seg = segment{}
	}
	// Worker-local trips carry no step (workers do not know the aggregate
	// count); the first one becomes the trainer's, stamped here.
	if trip != nil {
		trip.Step = t.stepsDone
		t.gd.trip = trip
	}
	sp.End()
}

// run applies up to quota steps on this worker's shard; a trip ends the
// segment early (the tripped step counts, its update was not applied).
func (w *worker) run(t *Trainer, quota int) {
	start := time.Now()
	for w.seg.steps < quota && w.seg.trip == nil {
		w.step(t)
		w.seg.steps++
	}
	w.busy += time.Since(start)
	w.steps += w.seg.steps
}

// step draws one record from this worker's stream, has the objective turn
// it into item rows and a coefficient vector, and applies the Eq. 22 step
// for R = Σ_t c_t·f_ut. Everything around the kernel's arithmetic — the
// non-finite sentinel, the Eq. 23 scalar's mean, loss tracking, clip
// counting, sampled phase timing — is attached here, once, for every
// objective.
func (w *worker) step(t *Trainer) {
	var timedAt time.Time
	timed := false
	if t.stages != nil {
		if w.stageTick&(stageSampleEvery-1) == 0 {
			timed = true
			timedAt = time.Now()
		}
		w.stageTick++
	}
	rec := w.pairs[w.rng.Intn(len(w.pairs))]
	coef := w.sampler.Draw(rec.User, rec.Item, w.items[:])
	if timed {
		timedAt = observePhase(t.stages.sample, timedAt)
	}

	r := w.kern.Risk(rec.User, w.items[:len(coef)], coef)

	watchdog := t.gd != nil && t.gd.cfg.Watchdog
	if watchdog && !isFinite(r) {
		// Applying this update would spread the poison to every item row
		// of the step; record the trip and leave the parameters as they
		// are. No step stamp: the aggregate count lives with the
		// coordinator, which adds it at the barrier.
		w.seg.trip = &guard.Trip{Reason: guard.ReasonNonFiniteRisk,
			Detail: fmt.Sprintf("risk R = %v for user %d on worker %d", r, rec.User, w.id)}
		return
	}

	g := 1 - mathx.Sigmoid(r) // Eq. 23's multiplicative scalar
	w.seg.gradSum += g
	w.seg.gradN++
	trackLoss := t.hook != nil
	if !trackLoss && watchdog {
		// The watchdog needs the loss curve but not per-step resolution:
		// a 1-in-8 sample keeps the average faithful while sparing the
		// unhooked hot path most of the LogSigmoid cost.
		w.lossTick++
		trackLoss = w.lossTick&7 == 0
	}
	if trackLoss {
		loss := -mathx.LogSigmoid(r)
		if len(t.workers) == 1 {
			// Fold per step, not per segment: the watchdog's thresholds
			// are tuned to this form, and nobody else is writing.
			t.foldLoss(loss, 1)
		} else {
			w.seg.lossSum += loss
			w.seg.lossN++
		}
	}
	if timed {
		timedAt = observePhase(t.stages.risk, timedAt)
	}

	if cn := t.cfg.ClipNorm; cn > 0 {
		var clipped bool
		if g, clipped = w.kern.Clip(g, cn); clipped {
			w.seg.clips++
		}
	}
	w.kern.Apply(g, Rates{Learn: t.cfg.LearnRate, RegUser: t.cfg.RegUser, RegItem: t.cfg.RegItem, RegBias: t.cfg.RegBias})
	if timed {
		observePhase(t.stages.update, timedAt)
	}
}

// proportionalShares splits seg among the workers in proportion to their
// record counts (largest-remainder rounding, ties to the lowest id), so
// aggregate sampling stays record-uniform and the allocation is a pure
// function of (seg, shard sizes) — reproducible across runs and resumes.
func proportionalShares(seg int, workers []*worker) []int {
	total := 0
	for _, w := range workers {
		total += len(w.pairs)
	}
	shares := make([]int, len(workers))
	rems := make([]int64, len(workers))
	assigned := 0
	for i, w := range workers {
		num := int64(seg) * int64(len(w.pairs))
		shares[i] = int(num / int64(total))
		rems[i] = num % int64(total)
		assigned += shares[i]
	}
	for assigned < seg {
		best := -1
		for i := range workers {
			if rems[i] >= 0 && (best < 0 || rems[i] > rems[best]) {
				best = i
			}
		}
		shares[best]++
		rems[best] = -1 // one top-up per worker per round
		assigned++
	}
	return shares
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
