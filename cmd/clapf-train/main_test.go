package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"clapf"
	"clapf/internal/fault"
	"clapf/internal/store"
)

func writeDataset(t *testing.T, path string, seed uint64) {
	t.Helper()
	p := clapf.Profile{
		Name: "cli", Users: 40, Items: 80, Pairs: 800,
		ZipfExp: 0.7, Dim: 4, Affinity: 5,
	}
	d, err := clapf.GenerateDataset(p, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := clapf.WriteDatasetTSV(f, d); err != nil {
		t.Fatal(err)
	}
}

func baseOptions(trainPath string) options {
	return options{
		trainPath: trainPath,
		variant:   "map",
		lambda:    0.3,
		dim:       8,
		epochs:    5,
		rate:      0.05,
		reg:       0.01,
		seed:      3,
		workers:   1,
	}
}

func TestTrainEvaluateSave(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	testPath := filepath.Join(dir, "test.tsv")
	modelPath := filepath.Join(dir, "m.clapf")
	writeDataset(t, trainPath, 1)
	writeDataset(t, testPath, 2)

	o := baseOptions(trainPath)
	o.testPath = testPath
	o.outPath = modelPath
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	m, err := clapf.LoadModelFile(modelPath)
	if err != nil {
		t.Fatalf("saved model unreadable: %v", err)
	}
	if m.Dim() != 8 {
		t.Errorf("model dim = %d, want 8", m.Dim())
	}
}

func TestTrainMRRWithDSS(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	writeDataset(t, trainPath, 3)
	o := baseOptions(trainPath)
	o.variant = "mrr"
	o.lambda = 0.2
	o.dss = true
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

var (
	telemetryLineRE = regexp.MustCompile(
		`msg=telemetry step=\d+ total=\d+ loss=\d+\.\d{4} grad_mag=\d+\.\d{4} steps_per_sec=\d+ elapsed=\S+`)
	summaryLineRE = regexp.MustCompile(
		`(?m)^trained \d+ steps in \S+ \(\d+ steps/s\), final smoothed loss \d+\.\d{4}$`)
)

func TestTelemetryAndSummaryFormat(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	testPath := filepath.Join(dir, "test.tsv")
	writeDataset(t, trainPath, 5)
	writeDataset(t, testPath, 6)

	var out bytes.Buffer
	o := baseOptions(trainPath)
	o.testPath = testPath
	o.epochs = 4
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	text := out.String()

	// One telemetry line per epoch-equivalent (default interval).
	lines := telemetryLineRE.FindAllString(text, -1)
	if len(lines) != 4 {
		t.Errorf("got %d telemetry lines, want 4; output:\n%s", len(lines), text)
	}
	if !summaryLineRE.MatchString(text) {
		t.Errorf("summary line missing or malformed in:\n%s", text)
	}
	// Eval timing phases surface in the evaluation header.
	if !regexp.MustCompile(`evaluated \d+ users in total \S+ \(score \S+, rank \S+, metrics \S+\):`).MatchString(text) {
		t.Errorf("eval timing missing in:\n%s", text)
	}
}

func TestLogEveryOverride(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	writeDataset(t, trainPath, 7)

	var out bytes.Buffer
	o := baseOptions(trainPath)
	o.epochs = 2
	o.logEvery = 100 // pairs ≈ hundreds, so this yields many lines
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if n := len(telemetryLineRE.FindAllString(out.String(), -1)); n < 4 {
		t.Errorf("got %d telemetry lines with -log-every=100, want several", n)
	}
}

func TestMetricsOutDump(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	dumpPath := filepath.Join(dir, "telemetry.json")
	writeDataset(t, trainPath, 8)

	var out bytes.Buffer
	o := baseOptions(trainPath)
	o.dss = true
	o.metricsOut = dumpPath
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}

	buf, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetryDump
	if err := json.Unmarshal(buf, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Variant != "MAP" || !dump.DSS {
		t.Errorf("dump header = %+v", dump)
	}
	if dump.Steps == 0 || dump.FinalSmoothedLoss <= 0 || dump.StepsPerSec <= 0 {
		t.Errorf("dump totals = %+v", dump)
	}
	if len(dump.Intervals) != o.epochs {
		t.Errorf("dump has %d intervals, want %d", len(dump.Intervals), o.epochs)
	}
	if dump.NegDraws.Count == 0 || dump.PosDraws.Count == 0 {
		t.Error("DSS draw histograms empty in dump")
	}
	if !strings.Contains(out.String(), "DSS draws: mean positive rank") {
		t.Errorf("DSS draw summary missing in:\n%s", out.String())
	}
}

// finalLoss runs clapf-train with a telemetry dump and returns the final
// smoothed loss.
func finalLoss(t *testing.T, o options) float64 {
	t.Helper()
	o.metricsOut = filepath.Join(t.TempDir(), "telemetry.json")
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	buf, err := os.ReadFile(o.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetryDump
	if err := json.Unmarshal(buf, &dump); err != nil {
		t.Fatal(err)
	}
	return dump.FinalSmoothedLoss
}

func TestCheckpointWriteAndSignalExit(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	ckptDir := filepath.Join(dir, "ckpt")
	writeDataset(t, trainPath, 11)

	o := baseOptions(trainPath)
	o.epochs = 3
	o.checkpointDir = ckptDir
	o.checkpointEvery = 300
	o.checkpointKeep = 2
	// Pre-loaded stop channel: the first batch finishes, then the run
	// checkpoints and exits cleanly — the SIGINT contract.
	o.stopCh = make(chan os.Signal, 1)
	o.stopCh <- os.Interrupt

	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatalf("interrupted run failed: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"caught interrupt at step", "checkpoint written to", "interrupted at step"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// A loadable checkpoint with full metadata must exist.
	_, meta, path, _, err := store.LatestCheckpoint(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step == 0 || len(meta.RNG) != 4 || len(meta.SamplerRNG) != 4 || meta.DataFingerprint == 0 {
		t.Errorf("checkpoint %s metadata incomplete: %+v", path, meta)
	}
	if meta.Hyper["variant"] != "map" {
		t.Errorf("checkpoint hyper = %v", meta.Hyper)
	}
}

func TestCheckpointKeepsLastN(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	ckptDir := filepath.Join(dir, "ckpt")
	writeDataset(t, trainPath, 12)

	o := baseOptions(trainPath)
	o.epochs = 4
	o.checkpointDir = ckptDir
	o.checkpointEvery = 250
	o.checkpointKeep = 2
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	gens, err := store.ListCheckpoints(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Errorf("kept %d generations, want 2: %v", len(gens), gens)
	}
}

// TestChaosResumeAfterTornCheckpoint is the acceptance chaos test: a
// training run whose newest checkpoint generation was killed mid-write
// (torn file via internal/fault) must resume from the newest *valid*
// generation and reach a final smoothed loss within 5% of an
// uninterrupted run with the same seed.
func TestChaosResumeAfterTornCheckpoint(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	ckptDir := filepath.Join(dir, "ckpt")
	writeDataset(t, trainPath, 13)

	const fullEpochs = 6

	// Reference: one uninterrupted run.
	ref := baseOptions(trainPath)
	ref.epochs = fullEpochs
	refLoss := finalLoss(t, ref)

	// Phase 1: train half the budget with checkpoints on.
	half := baseOptions(trainPath)
	half.epochs = fullEpochs / 2
	half.checkpointDir = ckptDir
	half.checkpointKeep = 0 // keep everything; the crash sits on top
	if err := run(io.Discard, half); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the process "dies" while writing the next generation —
	// internal/fault leaves a torn checkpoint newer than every valid one.
	model, meta, _, _, err := store.LatestCheckpoint(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := store.CheckpointPath(ckptDir, meta.Step+123)
	if err := fault.CrashFile(tornPath, 512, func(w io.Writer) error {
		return store.Save(w, model)
	}); err != nil {
		t.Fatal(err)
	}

	// Phase 3: resume to the full budget; the torn generation must be
	// skipped, the valid one restored.
	res := baseOptions(trainPath)
	res.epochs = fullEpochs
	res.checkpointDir = ckptDir
	res.resume = true
	res.metricsOut = filepath.Join(dir, "resumed.json")
	var out bytes.Buffer
	if err := run(&out, res); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "skipping invalid checkpoint "+tornPath) {
		t.Errorf("torn checkpoint not skipped:\n%s", text)
	}
	if !strings.Contains(text, "resumed from ") {
		t.Errorf("resume line missing:\n%s", text)
	}

	buf, err := os.ReadFile(res.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetryDump
	if err := json.Unmarshal(buf, &dump); err != nil {
		t.Fatal(err)
	}
	resLoss := dump.FinalSmoothedLoss
	if resLoss <= 0 || refLoss <= 0 {
		t.Fatalf("losses not tracked: ref %v, resumed %v", refLoss, resLoss)
	}
	if diff := math.Abs(resLoss - refLoss); diff > 0.05*refLoss {
		t.Errorf("resumed loss %v deviates from uninterrupted %v by %.1f%% (limit 5%%)",
			resLoss, refLoss, 100*diff/refLoss)
	}
}

func TestResumeRefusals(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	otherPath := filepath.Join(dir, "other.tsv")
	ckptDir := filepath.Join(dir, "ckpt")
	writeDataset(t, trainPath, 14)
	writeDataset(t, otherPath, 15)

	seeded := baseOptions(trainPath)
	seeded.epochs = 1
	seeded.checkpointDir = ckptDir
	if err := run(io.Discard, seeded); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"resume without dir", func(o *options) { o.checkpointDir = "" }},
		{"resume from empty dir", func(o *options) { o.checkpointDir = filepath.Join(dir, "empty") }},
		{"different dataset", func(o *options) { o.trainPath = otherPath }},
		{"different lambda", func(o *options) { o.lambda = 0.9 }},
		{"different seed", func(o *options) { o.seed = 999 }},
	}
	for _, c := range cases {
		o := baseOptions(trainPath)
		o.epochs = 2
		o.checkpointDir = ckptDir
		o.resume = true
		c.mut(&o)
		if err := run(io.Discard, o); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	writeDataset(t, trainPath, 4)

	cases := []struct {
		name string
		mut  func(*options)
	}{
		{"missing -train", func(o *options) { o.trainPath = "" }},
		{"unknown variant", func(o *options) { o.variant = "bogus" }},
		{"lambda out of range", func(o *options) { o.lambda = 7 }},
		{"missing training file", func(o *options) { o.trainPath = filepath.Join(dir, "absent.tsv") }},
		{"fresh run into a used checkpoint dir", func(o *options) {
			o.checkpointDir = filepath.Join(dir, "used")
			if err := run(io.Discard, *o); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		o := baseOptions(trainPath)
		o.epochs = 1
		c.mut(&o)
		if err := run(io.Discard, o); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestParallelWorkersFlag(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	testPath := filepath.Join(dir, "test.tsv")
	dumpPath := filepath.Join(dir, "telemetry.json")
	promPath := filepath.Join(dir, "metrics.prom")
	writeDataset(t, trainPath, 21)
	writeDataset(t, testPath, 22)

	o := baseOptions(trainPath)
	o.testPath = testPath
	o.workers = 4
	o.metricsOut = dumpPath
	o.promOut = promPath
	var out strings.Builder
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4 worker(s)") {
		t.Errorf("banner does not mention worker count:\n%s", out.String())
	}

	buf, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetryDump
	if err := json.Unmarshal(buf, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Workers != 4 || len(dump.WorkerStats) != 4 {
		t.Fatalf("dump has %d workers / %d worker stats, want 4/4", dump.Workers, len(dump.WorkerStats))
	}
	sum := 0
	for _, ws := range dump.WorkerStats {
		sum += ws.Steps
	}
	if sum != dump.Steps {
		t.Errorf("worker steps sum to %d, total is %d", sum, dump.Steps)
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"clapf_train_workers 4", `clapf_train_worker_steps_total{worker="0"}`, `clapf_train_worker_steps_per_sec{worker="3"}`} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prom output missing %q:\n%s", want, prom)
		}
	}
}

func TestParallelCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	ckptDir := filepath.Join(dir, "ckpt")
	writeDataset(t, trainPath, 23)

	o := baseOptions(trainPath)
	o.workers = 2
	o.epochs = 1
	o.checkpointDir = ckptDir
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}

	// Continue the run with more epochs and the same worker count.
	res := baseOptions(trainPath)
	res.workers = 2
	res.epochs = 2
	res.checkpointDir = ckptDir
	res.resume = true
	var out strings.Builder
	if err := run(&out, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resumed from") {
		t.Errorf("no resume line in output:\n%s", out.String())
	}

	// A parallel checkpoint must not resume into a serial trainer (the
	// worker-count hyper check fires first, which is fine — both refuse).
	serial := baseOptions(trainPath)
	serial.epochs = 2
	serial.checkpointDir = ckptDir
	serial.resume = true
	if err := run(io.Discard, serial); err == nil {
		t.Error("serial resume of a parallel checkpoint succeeded")
	}

	// Nor into a different worker count.
	three := baseOptions(trainPath)
	three.workers = 3
	three.epochs = 2
	three.checkpointDir = ckptDir
	three.resume = true
	if err := run(io.Discard, three); err == nil {
		t.Error("resume with a different worker count succeeded")
	}
}

func TestWatchdogFlagValidation(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	writeDataset(t, trainPath, 40)

	o := baseOptions(trainPath)
	o.watchdog = true
	err := run(io.Discard, o)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Errorf("-watchdog without -checkpoint-dir: err = %v", err)
	}

	o = baseOptions(trainPath)
	o.watchdog = true
	o.checkpointDir = filepath.Join(dir, "ckpt")
	o.maxRollbacks = -1
	if err := run(io.Discard, o); err == nil {
		t.Error("-max-rollbacks -1 accepted")
	}
}

func TestClipNormCountsClips(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	promPath := filepath.Join(dir, "m.prom")
	writeDataset(t, trainPath, 41)

	o := baseOptions(trainPath)
	o.epochs = 3
	o.clipNorm = 0.001
	o.promOut = promPath
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^clapf_grad_clip_total (\d+)$`).FindSubmatch(prom)
	if m == nil {
		t.Fatalf("clapf_grad_clip_total missing from:\n%s", prom)
	}
	if string(m[1]) == "0" {
		t.Error("tight -clip-norm never clipped an update")
	}
}

func TestWatchdogCleanRun(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	promPath := filepath.Join(dir, "m.prom")
	writeDataset(t, trainPath, 42)

	var out bytes.Buffer
	o := baseOptions(trainPath)
	o.watchdog = true
	o.checkpointDir = filepath.Join(dir, "ckpt")
	o.promOut = promPath
	if err := run(&out, o); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "rolled back") {
		t.Errorf("healthy run rolled back:\n%s", out.String())
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"clapf_train_rollbacks_total 0", "clapf_train_health 1"} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("metrics lack %q:\n%s", want, prom)
		}
	}
	// The up-front gated checkpoint plus the per-epoch cadence must all be
	// resumable generations.
	if _, _, _, _, err := store.LatestCheckpoint(o.checkpointDir); err != nil {
		t.Errorf("no usable checkpoint after a watchdog run: %v", err)
	}
}

// tripFixture is a -watchdog run ready to have a fault injected through
// options.afterBatch: one checkpoint per epoch, a rollback budget, metrics
// and the model written out. steps is the run's cfg.Steps.
func tripFixture(t *testing.T, seed uint64) (o options, steps int) {
	t.Helper()
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	writeDataset(t, trainPath, seed)
	train, err := loadTSV(trainPath)
	if err != nil {
		t.Fatal(err)
	}
	o = baseOptions(trainPath)
	o.watchdog = true
	o.maxRollbacks = 3
	o.checkpointDir = filepath.Join(dir, "ckpt")
	o.outPath = filepath.Join(dir, "m.clapf")
	o.promOut = filepath.Join(dir, "m.prom")
	return o, o.epochs * train.NumPairs()
}

// checkRecoveredRun asserts what every recovered run owes: it ended at
// the full step budget, not at the restored step; each recovery was
// narrated once; the saved model is finite; the rollbacks were counted.
func checkRecoveredRun(t *testing.T, o options, steps, rollbacks int, text string) {
	t.Helper()
	if want := fmt.Sprintf("trained %d steps in", steps); !strings.Contains(text, want) {
		t.Errorf("output lacks %q:\n%s", want, text)
	}
	if n := strings.Count(text, "rolled back"); n != rollbacks {
		t.Errorf("%d rollback line(s) in the output, want %d:\n%s", n, rollbacks, text)
	}
	m, err := clapf.LoadModelFile(o.outPath)
	if err != nil {
		t.Fatalf("recovered run saved no model: %v\n%s", err, text)
	}
	if u, v, b := m.CountNonFinite(); u+v+b > 0 {
		t.Errorf("saved model carries %d non-finite parameters", u+v+b)
	}
	prom, err := os.ReadFile(o.promOut)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("clapf_train_rollbacks_total %d\n", rollbacks); !strings.Contains(string(prom), want) {
		t.Errorf("metrics lack %q:\n%s", want, prom)
	}
}

// TestTripRecovers drives a poisoning through the shipped path. Mid-run:
// NaN lands in V after the second epoch's batch, the run rolls back once
// and finishes the whole budget on a clean model. After the final batch:
// the poison is caught by the final checkpoint's gate, which rolls back an
// epoch; the run must train those steps again rather than report the
// restored step as the finished run.
func TestTripRecovers(t *testing.T) {
	for _, c := range []struct {
		name     string
		poisonAt func(steps, epochs int) int
	}{
		{"mid-run", func(steps, epochs int) int { return 2 * steps / epochs }},
		{"after the final batch", func(steps, _ int) int { return steps }},
	} {
		t.Run(c.name, func(t *testing.T) {
			o, steps := tripFixture(t, 44)
			var poison func(int)
			o.afterBatch = func(tr *clapf.Trainer, step int) {
				if poison == nil { // the model exists only once run() has built its trainer
					poison = fault.PoisonAtStep(tr.Model(), c.poisonAt(steps, o.epochs), 45, 3)
				}
				poison(step)
			}
			var out bytes.Buffer
			if err := run(&out, o); err != nil {
				t.Fatalf("%v\noutput:\n%s", err, out.String())
			}
			checkRecoveredRun(t, o, steps, 1, out.String())
			if _, meta, _, _, err := store.LatestCheckpoint(o.checkpointDir); err != nil || meta.Step != steps {
				t.Errorf("newest generation = %+v (err %v), want step %d", meta, err, steps)
			}
		})
	}
}

// TestStopInTheBatchThatTrips: a runaway learning rate trips the guard
// inside a batch and the stop signal arrives before that batch's
// boundary. The run must still recover before it checkpoints and exits,
// so what it leaves behind is a clean generation a -resume continues.
func TestStopInTheBatchThatTrips(t *testing.T) {
	o, steps := tripFixture(t, 48)
	o.stopCh = make(chan os.Signal, 1)
	exploded, stopped := false, false
	o.afterBatch = func(tr *clapf.Trainer, step int) {
		switch {
		case !exploded && step >= 2*steps/o.epochs:
			exploded = true
			tr.ScaleLearnRate(1e30)
		case !stopped && tr.GuardTrip() != nil:
			stopped = true
			o.stopCh <- os.Interrupt
		}
	}
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	if !stopped || strings.Count(text, "rolled back") != 1 || !strings.Contains(text, "interrupted at step") {
		t.Fatalf("want one rollback and an interrupted exit (stop sent: %v):\n%s", stopped, text)
	}
	if _, err := os.Stat(o.outPath); err == nil {
		t.Error("an interrupted run published a model")
	}
	m, meta, path, skipped, err := store.LatestCheckpoint(o.checkpointDir)
	if err != nil || len(skipped) != 0 {
		t.Fatalf("newest generation unusable: %v (skipped %v)", err, skipped)
	}
	if u, v, b := m.CountNonFinite(); u+v+b > 0 {
		t.Errorf("%s carries %d non-finite parameters", path, u+v+b)
	}
	if !strings.Contains(text, fmt.Sprintf("interrupted at step %d;", meta.Step)) {
		t.Errorf("exit does not name the newest generation's step %d:\n%s", meta.Step, text)
	}

	o.stopCh, o.afterBatch, o.resume = nil, nil, true
	out.Reset()
	if err := run(&out, o); err != nil {
		t.Fatalf("resume: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "resumed from "+path) {
		t.Errorf("resume did not continue from %s:\n%s", path, out.String())
	}
	checkRecoveredRun(t, o, steps, 0, out.String())
}

func TestResumeRefusesClipNormChange(t *testing.T) {
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.tsv")
	writeDataset(t, trainPath, 43)

	o := baseOptions(trainPath)
	o.checkpointDir = filepath.Join(dir, "ckpt")
	o.epochs = 2
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
	// Clipping changes the trajectory: resuming an unclipped checkpoint
	// under -clip-norm must be refused like any other hyper change.
	o.resume = true
	o.epochs = 4
	o.clipNorm = 0.5
	err := run(io.Discard, o)
	if err == nil || !strings.Contains(err.Error(), "clip_norm") {
		t.Errorf("clip-norm change resumed: %v", err)
	}
}
