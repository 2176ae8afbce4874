package guard

import (
	"fmt"
	"log/slog"
	"strings"

	"clapf/internal/mf"
	"clapf/internal/store"
)

// Trainee is the trainer surface the supervisor drives; core.Trainer
// satisfies it for any worker count. All methods are called between
// RunSteps calls, when the trainer is quiescent.
type Trainee interface {
	RunSteps(n int)
	StepsDone() int
	Model() *mf.Model
	// GuardTrip returns the pending trip, or nil while healthy.
	GuardTrip() *Trip
	// ClearGuardTrip re-arms the guard after a rollback.
	ClearGuardTrip()
	// ScaleLearnRate multiplies the learning rate by factor and returns
	// the new rate. The scaling survives rollbacks: restored state covers
	// the optimization trajectory, not the hyper-parameters.
	ScaleLearnRate(factor float64) float64
	// RestoreFromMeta rewinds the trainer to a checkpoint (parameters
	// from m, schedule/RNG/loss state from meta).
	RestoreFromMeta(m *mf.Model, meta *store.Meta) error
}

// Supervisor recovers a tripped trainee from its checkpoint directory:
// roll back to the newest good generation, multiply the learning rate by
// Backoff, re-arm the guard, and train on — at most MaxRollbacks times,
// after which it fails with a diagnostic report. Run is the one loop that
// does this; a nil *Supervisor runs the same loop unsupervised.
type Supervisor struct {
	// Dir is the checkpoint directory rollbacks restore from.
	Dir string
	// MaxRollbacks bounds the retry budget; a trip past the budget fails
	// the run. 0 means no retries (every trip is fatal).
	MaxRollbacks int
	// Backoff is the learning-rate multiplier applied on each rollback
	// (0 selects the default 0.5 — halving).
	Backoff float64
	// Metrics, when set, receives rollback/health/scan updates.
	Metrics *Metrics
	// Log, when set, records trips and recoveries.
	Log *slog.Logger

	report Report
}

// RollbackEvent records one successful automatic recovery.
type RollbackEvent struct {
	// Trip is the guard trip that forced the rollback.
	Trip Trip
	// CheckpointPath and CheckpointStep identify the restored generation.
	CheckpointPath string
	CheckpointStep int
	// SkippedCheckpoints lists corrupt generations LatestCheckpoint
	// passed over while locating a good one.
	SkippedCheckpoints []string
	// LearnRate is the backed-off learning rate the run resumed with.
	LearnRate float64
}

// Report is the supervisor's diagnostic record: every recovery, and the
// final trip when the budget ran out.
type Report struct {
	Rollbacks []RollbackEvent
	// Failed is true when a trip exhausted the budget or recovery itself
	// failed; FinalTrip then holds the unrecovered trip.
	Failed    bool
	FinalTrip *Trip
}

func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "guard report: %d rollback(s)", len(r.Rollbacks))
	if r.Failed {
		sb.WriteString(", FAILED")
	}
	sb.WriteString("\n")
	for i, ev := range r.Rollbacks {
		fmt.Fprintf(&sb, "  rollback %d: %s -> restored %s (step %d), learning rate %g\n",
			i+1, ev.Trip.String(), ev.CheckpointPath, ev.CheckpointStep, ev.LearnRate)
		for _, s := range ev.SkippedCheckpoints {
			fmt.Fprintf(&sb, "    skipped corrupt checkpoint %s\n", s)
		}
	}
	if r.FinalTrip != nil {
		fmt.Fprintf(&sb, "  unrecovered: %s\n", r.FinalTrip.String())
	}
	return sb.String()
}

// Report returns the supervisor's diagnostic record so far.
func (s *Supervisor) Report() *Report { return &s.report }

func (s *Supervisor) backoff() float64 {
	if s.Backoff == 0 {
		return 0.5
	}
	return s.Backoff
}

// handleTrip checks t for a tripped guard and, if one is pending, rolls
// back and backs off. It returns (false, nil) while healthy,
// (true, nil) after a successful recovery, and a non-nil error when the
// trip could not be recovered (budget exhausted, no usable checkpoint) —
// the error wraps the full diagnostic report.
func (s *Supervisor) handleTrip(t Trainee) (recovered bool, err error) {
	trip := t.GuardTrip()
	if trip == nil {
		return false, nil
	}
	return s.recover(t, trip)
}

// gateCheckpoint fully scans t's parameters and reports whether a
// checkpoint may be written. A clean scan returns (true, nil). A poisoned
// scan never writes: it counts the findings, treats them as a trip, and
// attempts recovery — returning (false, nil) when recovered, or the
// recovery error. This is the barrier that keeps every generation in Dir
// a valid rollback target.
func (s *Supervisor) gateCheckpoint(t Trainee) (ok bool, err error) {
	res := ScanModel(t.Model())
	if res.Total() == 0 {
		return true, nil
	}
	if s.Metrics != nil {
		s.Metrics.NonFiniteParams.Add(uint64(res.Total()))
	}
	trip := &Trip{Step: t.StepsDone(), Reason: ReasonNonFiniteParams, Detail: res.String()}
	_, err = s.recover(t, trip)
	return false, err
}

// recover performs one rollback: health gauge down, budget check, restore
// from the newest good generation, back off the learning rate, re-arm,
// health gauge up.
func (s *Supervisor) recover(t Trainee, trip *Trip) (bool, error) {
	if s.Metrics != nil {
		s.Metrics.Health.Set(0)
	}
	if s.Log != nil {
		s.Log.Warn("training guard tripped", "step", trip.Step, "reason", trip.Reason, "detail", trip.Detail)
	}
	fail := func(err error) (bool, error) {
		s.report.Failed = true
		s.report.FinalTrip = trip
		return false, fmt.Errorf("%w\n%s", err, s.report.String())
	}
	if len(s.report.Rollbacks) >= s.MaxRollbacks {
		return fail(fmt.Errorf("guard: %s: rollback budget (%d) exhausted", trip.String(), s.MaxRollbacks))
	}
	m, meta, path, skipped, err := store.LatestCheckpoint(s.Dir)
	if err != nil {
		return fail(fmt.Errorf("guard: %s: no usable checkpoint in %s: %w", trip.String(), s.Dir, err))
	}
	if err := t.RestoreFromMeta(m, meta); err != nil {
		return fail(fmt.Errorf("guard: %s: restoring %s: %w", trip.String(), path, err))
	}
	lr := t.ScaleLearnRate(s.backoff())
	t.ClearGuardTrip()
	ev := RollbackEvent{
		Trip:               *trip,
		CheckpointPath:     path,
		CheckpointStep:     meta.Step,
		SkippedCheckpoints: skipped,
		LearnRate:          lr,
	}
	s.report.Rollbacks = append(s.report.Rollbacks, ev)
	if s.Metrics != nil {
		s.Metrics.Rollbacks.Inc()
		s.Metrics.Health.Set(1)
	}
	if s.Log != nil {
		s.Log.Info("rolled back to checkpoint", "path", path, "step", meta.Step, "learn_rate", lr)
	}
	return true, nil
}

// RunOptions parameterizes Supervisor.Run.
type RunOptions struct {
	// TotalSteps is the step count to train to.
	TotalSteps int
	// BatchSteps is the RunSteps slice size (0 selects 4096). Trips and
	// Stop are handled at batch boundaries, so smaller batches react sooner
	// at the cost of more quiescent points.
	BatchSteps int
	// CheckpointEvery is the step interval between checkpoint writes
	// (0 selects BatchSteps).
	CheckpointEvery int
	// Checkpoint, when set, persists the trainee as a new generation. A
	// supervisor gates every call on a full parameter scan so a poisoned
	// model is never checkpointed — rollback targets must be clean by
	// construction.
	Checkpoint func() (string, error)
	// AfterBatch, when set, runs after every batch while the trainee is
	// quiescent — the chaos tests' injection point.
	AfterBatch func(step int)
	// Stop, when set, is polled after every batch; once it reports true
	// the run writes one final checkpoint and returns interrupted.
	Stop func() bool
}

// Run drives t to opts.TotalSteps: train in batches, recover every trip,
// and write gated checkpoints on the configured cadence, when Stop fires
// and at the end (plus one up front on a fresh run, so the very first trip
// has a rollback target). It returns the diagnostic report, whether Stop
// ended the run before TotalSteps did, and a non-nil error when a trip
// could not be recovered.
//
// With a nil supervisor the same loop runs unsupervised: it batches,
// checkpoints and stops, but neither scans nor rolls back.
func (s *Supervisor) Run(t Trainee, opts RunOptions) (rep *Report, interrupted bool, err error) {
	rep = new(Report)
	if s != nil {
		rep = &s.report
	}
	batch := opts.BatchSteps
	if batch <= 0 {
		batch = 4096
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = batch
	}
	// lastCkpt is the step of the newest generation this run can fall back
	// to: the last one written, or the one a rollback restored.
	lastCkpt := t.StepsDone()
	write := func() error {
		if opts.Checkpoint == nil {
			return nil
		}
		if s != nil {
			if ok, err := s.gateCheckpoint(t); err != nil || !ok {
				return err
			}
		}
		if _, err := opts.Checkpoint(); err != nil {
			return fmt.Errorf("guard: writing checkpoint: %w", err)
		}
		return nil
	}
	if s != nil && lastCkpt == 0 {
		if err := write(); err != nil {
			return rep, false, err
		}
	}
	// The loop re-tests StepsDone rather than remembering "done": a gate
	// that rolls back at the last checkpoint leaves steps to train.
	for t.StepsDone() < opts.TotalSteps {
		t.RunSteps(min(batch, opts.TotalSteps-t.StepsDone()))
		if opts.AfterBatch != nil {
			opts.AfterBatch(t.StepsDone())
		}
		stopped := opts.Stop != nil && opts.Stop()
		if s != nil {
			recovered, err := s.handleTrip(t)
			if err != nil {
				return rep, false, err
			}
			if recovered {
				lastCkpt = t.StepsDone()
			}
		}
		if stopped || t.StepsDone() >= opts.TotalSteps || t.StepsDone()-lastCkpt >= every {
			if err := write(); err != nil {
				return rep, false, err
			}
			lastCkpt = t.StepsDone()
		}
		if stopped {
			return rep, true, nil
		}
	}
	return rep, false, nil
}
