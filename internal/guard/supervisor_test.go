package guard

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/store"
)

// fakeTrainee is a minimal Trainee: it counts steps, carries a model, and
// lets tests plant trips and observe rollbacks without running SGD.
type fakeTrainee struct {
	steps       int
	model       *mf.Model
	trip        *Trip
	lr          float64
	restores    int
	failRestore bool
}

func (f *fakeTrainee) RunSteps(n int)   { f.steps += n }
func (f *fakeTrainee) StepsDone() int   { return f.steps }
func (f *fakeTrainee) Model() *mf.Model { return f.model }
func (f *fakeTrainee) GuardTrip() *Trip { return f.trip }
func (f *fakeTrainee) ClearGuardTrip()  { f.trip = nil }
func (f *fakeTrainee) ScaleLearnRate(factor float64) float64 {
	f.lr *= factor
	return f.lr
}
func (f *fakeTrainee) RestoreFromMeta(m *mf.Model, meta *store.Meta) error {
	if f.failRestore {
		return fmt.Errorf("fake restore refused")
	}
	f.restores++
	f.model = m
	f.steps = meta.Step
	return nil
}

func newFakeTrainee(t *testing.T) *fakeTrainee {
	t.Helper()
	m := mf.MustNew(mf.Config{NumUsers: 6, NumItems: 10, Dim: 4, UseBias: true, InitStd: 0.1})
	return &fakeTrainee{model: m, lr: 0.1}
}

// checkpointInto returns a RunOptions.Checkpoint that writes f's current
// state into dir, keeping every generation.
func (f *fakeTrainee) checkpointInto(dir string) func() (string, error) {
	return func() (string, error) {
		return store.WriteCheckpoint(dir, f.model, &store.Meta{Step: f.steps}, 0)
	}
}

// seedCheckpoint writes f's current state into dir as a rollback target.
func seedCheckpoint(t *testing.T, dir string, f *fakeTrainee) {
	t.Helper()
	if _, err := f.checkpointInto(dir)(); err != nil {
		t.Fatal(err)
	}
}

func TestHandleTripHealthy(t *testing.T) {
	s := &Supervisor{Dir: t.TempDir(), MaxRollbacks: 3}
	f := newFakeTrainee(t)
	recovered, err := s.handleTrip(f)
	if recovered || err != nil {
		t.Fatalf("handleTrip on healthy trainee = (%v, %v)", recovered, err)
	}
	if len(s.Report().Rollbacks) != 0 {
		t.Errorf("healthy trainee produced rollback events")
	}
}

func TestHandleTripRecovers(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	f.steps = 100
	seedCheckpoint(t, dir, f)

	metrics := NewMetrics(obs.NewRegistry())
	s := &Supervisor{Dir: dir, MaxRollbacks: 2, Metrics: metrics}

	f.steps = 500
	f.trip = &Trip{Step: 500, Reason: ReasonNonFiniteRisk, Detail: "risk R = NaN"}
	recovered, err := s.handleTrip(f)
	if !recovered || err != nil {
		t.Fatalf("handleTrip = (%v, %v), want recovery", recovered, err)
	}
	if f.steps != 100 || f.restores != 1 {
		t.Errorf("rewound to step %d with %d restores, want step 100, 1 restore", f.steps, f.restores)
	}
	if f.trip != nil {
		t.Error("guard not re-armed after recovery")
	}
	if f.lr != 0.05 {
		t.Errorf("learning rate = %v after default backoff, want 0.05", f.lr)
	}
	rep := s.Report()
	if len(rep.Rollbacks) != 1 || rep.Failed {
		t.Fatalf("report = %+v, want one clean rollback", rep)
	}
	ev := rep.Rollbacks[0]
	if ev.CheckpointStep != 100 || ev.LearnRate != 0.05 || ev.Trip.Reason != ReasonNonFiniteRisk {
		t.Errorf("rollback event = %+v", ev)
	}
	if metrics.Rollbacks.Value() != 1 {
		t.Errorf("clapf_train_rollbacks_total = %d, want 1", metrics.Rollbacks.Value())
	}
	if metrics.Health.Value() != 1 {
		t.Errorf("clapf_train_health = %v after recovery, want 1", metrics.Health.Value())
	}
}

func TestCustomBackoff(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	seedCheckpoint(t, dir, f)
	s := &Supervisor{Dir: dir, MaxRollbacks: 1, Backoff: 0.25}
	f.trip = &Trip{Step: 10, Reason: ReasonLossRise, Detail: "test"}
	if _, err := s.handleTrip(f); err != nil {
		t.Fatal(err)
	}
	if got := f.lr; math.Abs(got-0.025) > 1e-15 {
		t.Errorf("learning rate = %v after 0.25 backoff, want 0.025", got)
	}
}

func TestRollbackBudgetExhausted(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	seedCheckpoint(t, dir, f)
	metrics := NewMetrics(obs.NewRegistry())
	s := &Supervisor{Dir: dir, MaxRollbacks: 1, Metrics: metrics}

	f.trip = &Trip{Step: 10, Reason: ReasonNonFiniteRisk, Detail: "first"}
	if _, err := s.handleTrip(f); err != nil {
		t.Fatal(err)
	}
	f.trip = &Trip{Step: 20, Reason: ReasonNonFiniteRisk, Detail: "second"}
	_, err := s.handleTrip(f)
	if err == nil {
		t.Fatal("second trip recovered past a budget of 1")
	}
	if !strings.Contains(err.Error(), "budget") || !strings.Contains(err.Error(), "guard report") {
		t.Errorf("error lacks diagnostic report: %v", err)
	}
	rep := s.Report()
	if !rep.Failed || rep.FinalTrip == nil || rep.FinalTrip.Detail != "second" {
		t.Errorf("report = %+v, want failure carrying the second trip", rep)
	}
	if metrics.Health.Value() != 0 {
		t.Errorf("clapf_train_health = %v after fatal trip, want 0", metrics.Health.Value())
	}
}

func TestNoUsableCheckpointFails(t *testing.T) {
	f := newFakeTrainee(t)
	s := &Supervisor{Dir: t.TempDir(), MaxRollbacks: 3}
	f.trip = &Trip{Step: 10, Reason: ReasonNonFiniteRisk, Detail: "test"}
	_, err := s.handleTrip(f)
	if err == nil || !strings.Contains(err.Error(), "no usable checkpoint") {
		t.Fatalf("handleTrip without checkpoints = %v", err)
	}
	if !s.Report().Failed {
		t.Error("report not marked failed")
	}
}

func TestRestoreFailureFails(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	seedCheckpoint(t, dir, f)
	f.failRestore = true
	s := &Supervisor{Dir: dir, MaxRollbacks: 3}
	f.trip = &Trip{Step: 10, Reason: ReasonNonFiniteRisk, Detail: "test"}
	if _, err := s.handleTrip(f); err == nil || !strings.Contains(err.Error(), "fake restore refused") {
		t.Fatalf("restore failure not surfaced: %v", err)
	}
}

func TestGateCheckpoint(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	seedCheckpoint(t, dir, f)
	metrics := NewMetrics(obs.NewRegistry())
	s := &Supervisor{Dir: dir, MaxRollbacks: 2, Metrics: metrics}

	if ok, err := s.gateCheckpoint(f); !ok || err != nil {
		t.Fatalf("clean gate = (%v, %v)", ok, err)
	}

	// Poison the live model: the gate must refuse the write AND recover.
	clean := f.model
	f.model = clean.Clone()
	_, v, _ := f.model.RawParams()
	v[0], v[7] = math.NaN(), math.Inf(1)
	f.steps = 300
	ok, err := s.gateCheckpoint(f)
	if ok || err != nil {
		t.Fatalf("poisoned gate = (%v, %v), want refusal with recovery", ok, err)
	}
	if f.restores != 1 {
		t.Errorf("poisoned gate restored %d times, want 1", f.restores)
	}
	if res := ScanModel(f.model); res.Total() != 0 {
		t.Errorf("model still poisoned after gate recovery: %v", res)
	}
	if metrics.NonFiniteParams.Value() != 2 {
		t.Errorf("clapf_nonfinite_params_total = %d, want 2", metrics.NonFiniteParams.Value())
	}
	rep := s.Report()
	if len(rep.Rollbacks) != 1 || rep.Rollbacks[0].Trip.Reason != ReasonNonFiniteParams {
		t.Errorf("report = %+v, want one %s rollback", rep, ReasonNonFiniteParams)
	}
}

func TestRunRecoversMidTraining(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	s := &Supervisor{Dir: dir, MaxRollbacks: 2}
	tripped := false
	rep, _, err := s.Run(f, RunOptions{
		TotalSteps: 1000,
		BatchSteps: 100,
		Checkpoint: f.checkpointInto(dir),
		AfterBatch: func(step int) {
			if step >= 500 && !tripped {
				tripped = true
				f.trip = &Trip{Step: step, Reason: ReasonNonFiniteRisk, Detail: "injected"}
			}
		},
	})
	if err != nil {
		t.Fatalf("Run = %v\n%s", err, rep.String())
	}
	if f.steps != 1000 {
		t.Errorf("stopped at step %d, want 1000", f.steps)
	}
	if len(rep.Rollbacks) != 1 {
		t.Fatalf("report = %s, want exactly one rollback", rep.String())
	}
	// The trip fired at step 500; the freshest gated checkpoint was at 400.
	if ev := rep.Rollbacks[0]; ev.CheckpointStep != 400 {
		t.Errorf("rolled back to step %d, want 400", ev.CheckpointStep)
	}
	if f.lr != 0.05 {
		t.Errorf("learning rate = %v, want one halving", f.lr)
	}
	// The final gated checkpoint captured the finished run.
	_, meta, _, _, err := store.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != 1000 {
		t.Errorf("final checkpoint at step %d, want 1000", meta.Step)
	}
}

func TestRunGateBlocksPoisonedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	s := &Supervisor{Dir: dir, MaxRollbacks: 2}
	poisoned := false
	rep, _, err := s.Run(f, RunOptions{
		TotalSteps: 600,
		BatchSteps: 100,
		Checkpoint: f.checkpointInto(dir),
		AfterBatch: func(step int) {
			if step >= 300 && !poisoned {
				poisoned = true
				_, v, _ := f.model.RawParams()
				v[5] = math.NaN()
			}
		},
	})
	if err != nil {
		t.Fatalf("Run = %v\n%s", err, rep.String())
	}
	if len(rep.Rollbacks) != 1 || rep.Rollbacks[0].Trip.Reason != ReasonNonFiniteParams {
		t.Fatalf("report = %s, want one %s rollback", rep.String(), ReasonNonFiniteParams)
	}
	// Every surviving generation must scan clean — that is the gate's whole job.
	m, _, path, _, err := store.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res := ScanModel(m); res.Total() != 0 {
		t.Errorf("checkpoint %s carries poison: %v", path, res)
	}
	if res := ScanModel(f.model); res.Total() != 0 {
		t.Errorf("final model carries poison: %v", res)
	}
}

// TestRunStopsAfterCurrentBatch: a stop seen after a batch ends the run
// there, with exactly one more gated checkpoint than the cadence had
// written so far.
func TestRunStopsAfterCurrentBatch(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	s := &Supervisor{Dir: dir, MaxRollbacks: 1}
	polls := 0
	rep, interrupted, err := s.Run(f, RunOptions{
		TotalSteps:      1000,
		BatchSteps:      100,
		CheckpointEvery: 200,
		Checkpoint:      f.checkpointInto(dir),
		Stop:            func() bool { polls++; return f.steps >= 300 },
	})
	if err != nil {
		t.Fatalf("Run = %v\n%s", err, rep.String())
	}
	if !interrupted || f.steps != 300 || polls != 3 {
		t.Errorf("interrupted=%v at step %d after %d polls, want true at 300 after 3", interrupted, f.steps, polls)
	}
	// Up front at 0, the cadence at 200, and the stop's own at 300.
	gens, err := store.ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0] != store.CheckpointPath(dir, 300) {
		t.Errorf("generations = %v, want 0, 200 and the stop's 300", gens)
	}

	// The stop's checkpoint is gated like any other: poison seen at the
	// stop rolls back instead of being persisted, and the run still ends.
	_, v, _ := f.model.RawParams()
	v[3] = math.NaN()
	rep, interrupted, err = s.Run(f, RunOptions{
		TotalSteps: 1000,
		BatchSteps: 100,
		Checkpoint: f.checkpointInto(dir),
		Stop:       func() bool { return true },
	})
	if err != nil || !interrupted {
		t.Fatalf("poisoned stop: interrupted=%v, err %v", interrupted, err)
	}
	if f.steps != 300 || len(rep.Rollbacks) != 1 {
		t.Errorf("poisoned stop ended at step %d with %d rollbacks, want the restored 300 and 1", f.steps, len(rep.Rollbacks))
	}
	if m, _, path, _, err := store.LatestCheckpoint(dir); err != nil || ScanModel(m).Total() != 0 {
		t.Errorf("newest generation %s after a poisoned stop: err %v, scan %v", path, err, ScanModel(m))
	}
}

// TestRunUnsupervised: without a supervisor the loop still batches,
// checkpoints and stops, but a poisoned model is written as it is — no
// scan, no rollback — and a pending trip is nobody's business.
func TestRunUnsupervised(t *testing.T) {
	dir := t.TempDir()
	f := newFakeTrainee(t)
	_, v, _ := f.model.RawParams()
	v[5] = math.NaN()
	f.trip = &Trip{Step: 0, Reason: ReasonNonFiniteRisk, Detail: "ignored"}

	var s *Supervisor
	rep, interrupted, err := s.Run(f, RunOptions{
		TotalSteps: 500,
		BatchSteps: 100,
		Checkpoint: f.checkpointInto(dir),
		Stop:       func() bool { return f.steps >= 300 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted || len(rep.Rollbacks) != 0 || f.restores != 0 || f.trip == nil {
		t.Errorf("interrupted=%v, report %+v, %d restores, trip %v: want interrupted, untouched", interrupted, rep, f.restores, f.trip)
	}
	// No up-front generation; one per batch (the cadence defaults to the
	// batch), the last of them the stop's.
	gens, err := store.ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 || gens[0] != store.CheckpointPath(dir, 300) {
		t.Errorf("generations = %v, want 100, 200, 300", gens)
	}
	m, _, _, _, err := store.LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res := ScanModel(m); res.V != 1 {
		t.Errorf("unsupervised checkpoint scan = %v, want the poison written through", res)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{
		Rollbacks: []RollbackEvent{{
			Trip:               Trip{Step: 500, Reason: ReasonLossRise, Detail: "ewma rose"},
			CheckpointPath:     "/ckpt/ckpt-000000000400.clapf",
			CheckpointStep:     400,
			SkippedCheckpoints: []string{"/ckpt/ckpt-000000000450.clapf"},
			LearnRate:          0.05,
		}},
		Failed:    true,
		FinalTrip: &Trip{Step: 900, Reason: ReasonNonFiniteParams, Detail: "2 entries"},
	}
	s := rep.String()
	for _, want := range []string{"1 rollback(s)", "FAILED", "loss-rise at step 500",
		"step 400", "skipped corrupt checkpoint", "unrecovered: nonfinite-params at step 900"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q lacks %q", s, want)
		}
	}
}
