// Command clapf-train trains a CLAPF model on a TSV dataset, evaluates it
// against an optional test split, and saves the learned model.
//
// Usage:
//
//	clapf-train -train train.tsv [-test test.tsv] [-variant map|mrr]
//	            [-lambda 0.4] [-dss] [-epochs 30] [-out model.clapf]
//	            [-export-f32 model.f32.clapf]
//	            [-log-every N] [-metrics-out telemetry.json]
//	            [-prom-out metrics.prom]
//	            [-clip-norm C] [-watchdog] [-max-rollbacks N]
//
// Training is sequential SGD on the calling goroutine, so a seeded run is
// bit-reproducible; evaluation fans out over GOMAXPROCS goroutines and is
// bit-identical for any count. -prom-out writes the final training
// metrics (steps, throughput, guard and stage counters) in Prometheus
// text format.
//
// While training, one structured telemetry line is emitted per reporting
// interval (default: one epoch-equivalent):
//
//	… level=INFO msg=telemetry step=9040 total=271200 loss=0.5817 grad_mag=0.3294 steps_per_sec=913642 elapsed=9ms
//
// loss is an EWMA of the per-step logistic loss −ln σ(R); grad_mag is the
// interval mean of the Eq. 23 gradient scalar 1−σ(R) (near zero ⇒ the
// vanishing-gradient regime DSS escapes); steps_per_sec is SGD throughput.
// -metrics-out additionally dumps the full interval history plus DSS
// sampler draw histograms as JSON for offline plotting.
//
// Dataset files use the clapf TSV format (see clapf-datagen or
// clapf.WriteDatasetTSV).
//
// Crash safety: with -checkpoint-dir set, training writes durable
// checkpoints (model + step + RNG state + hyper-parameters +
// train-data fingerprint) every -checkpoint-every steps, keeping the last
// -checkpoint-keep generations. On SIGINT/SIGTERM the current step batch
// finishes, a final checkpoint is written, and the process exits cleanly.
// -resume restarts from the newest valid generation, skipping truncated
// or corrupt files, after verifying the checkpoint belongs to the same
// dataset and hyper-parameters. Without -resume the directory must hold
// no checkpoints: a fresh run does not share its generations with another
// run's.
//
// Training guardrails: -clip-norm C bounds the L2 norm of each update's
// data-term gradient (0 disables; clipped updates are counted in
// clapf_grad_clip_total). -watchdog arms divergence detection — per-step
// non-finite risk sentinels, sampled parameter health scans, and a
// smoothed-loss rise watchdog — and requires -checkpoint-dir: when a
// guard trips, training rolls back to the newest good checkpoint, halves
// the learning rate, and resumes, at most -max-rollbacks times before the
// run fails with a diagnostic report. Every checkpoint write is gated on
// a full parameter scan, so checkpoints are clean rollback targets by
// construction.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"clapf"
	"clapf/internal/guard"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/obs/trace"
	"clapf/internal/store"
)

func main() {
	var o options
	flag.StringVar(&o.trainPath, "train", "", "training dataset (TSV, required)")
	flag.StringVar(&o.testPath, "test", "", "test dataset (TSV, optional)")
	flag.StringVar(&o.variant, "variant", "map", "objective: map or mrr")
	flag.Float64Var(&o.lambda, "lambda", 0.4, "list-vs-pairwise trade-off λ in [0,1]")
	flag.BoolVar(&o.dss, "dss", false, "use the Double Sampling Strategy (CLAPF+)")
	flag.IntVar(&o.dim, "dim", 20, "latent dimensionality")
	flag.IntVar(&o.epochs, "epochs", 30, "epoch-equivalents of SGD")
	flag.Float64Var(&o.rate, "rate", 0.05, "learning rate")
	flag.Float64Var(&o.reg, "reg", 0.01, "L2 regularization")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.StringVar(&o.outPath, "out", "", "path to save the trained model (optional)")
	flag.StringVar(&o.exportF32, "export-f32", "", "additionally export a float32 serving model, mmap-able, to this path (optional)")
	flag.IntVar(&o.logEvery, "log-every", 0, "steps between telemetry lines (0 = one epoch-equivalent)")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write a JSON telemetry dump here after training (optional)")
	flag.StringVar(&o.checkpointDir, "checkpoint-dir", "", "directory for training checkpoints (optional)")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 0, "steps between checkpoints (0 = one epoch-equivalent)")
	flag.IntVar(&o.checkpointKeep, "checkpoint-keep", 3, "checkpoint generations to keep (0 = all)")
	flag.BoolVar(&o.resume, "resume", false, "resume from the newest valid checkpoint in -checkpoint-dir")
	flag.StringVar(&o.promOut, "prom-out", "", "write Prometheus-format training metrics here after training (optional)")
	flag.Float64Var(&o.clipNorm, "clip-norm", 0, "L2 bound on each update's data-term gradient (0 = no clipping)")
	flag.BoolVar(&o.watchdog, "watchdog", false, "arm divergence detection with automatic checkpoint rollback (requires -checkpoint-dir)")
	flag.IntVar(&o.maxRollbacks, "max-rollbacks", 3, "automatic rollbacks before a tripped run fails")
	flag.Parse()

	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "clapf-train:", err)
		os.Exit(1)
	}
}

// options carries every flag; run is pure over it for testability.
type options struct {
	trainPath, testPath string
	variant             string
	lambda              float64
	dss                 bool
	dim, epochs         int
	rate, reg           float64
	seed                uint64
	outPath             string
	exportF32           string
	logEvery            int
	metricsOut          string
	checkpointDir       string
	checkpointEvery     int
	checkpointKeep      int
	resume              bool
	promOut             string
	clipNorm            float64
	watchdog            bool
	maxRollbacks        int

	// stopCh overrides the OS signal channel in tests; nil installs a real
	// SIGINT/SIGTERM handler.
	stopCh chan os.Signal
	// afterBatch is the tests' fault-injection point: it runs after every
	// batch, while the trainer is quiescent.
	afterBatch func(trainer *clapf.Trainer, step int)
}

// intervalRecord is one telemetry snapshot in the -metrics-out dump.
type intervalRecord struct {
	Step           int     `json:"step"`
	SmoothedLoss   float64 `json:"smoothed_loss"`
	GradMag        float64 `json:"grad_mag"`
	StepsPerSec    float64 `json:"steps_per_sec"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// telemetryDump is the -metrics-out payload.
type telemetryDump struct {
	Variant           string                `json:"variant"`
	Lambda            float64               `json:"lambda"`
	DSS               bool                  `json:"dss"`
	Steps             int                   `json:"steps"`
	WallSeconds       float64               `json:"wall_seconds"`
	StepsPerSec       float64               `json:"steps_per_sec"`
	FinalSmoothedLoss float64               `json:"final_smoothed_loss"`
	Intervals         []intervalRecord      `json:"intervals"`
	PosDraws          obs.HistogramSnapshot `json:"pos_draws"`
	NegDraws          obs.HistogramSnapshot `json:"neg_draws"`
}

func run(w io.Writer, o options) error {
	if o.trainPath == "" {
		return fmt.Errorf("-train is required")
	}
	train, err := loadTSV(o.trainPath)
	if err != nil {
		return err
	}

	var v clapf.Variant
	switch o.variant {
	case "map":
		v = clapf.MAP
	case "mrr":
		v = clapf.MRR
	default:
		return fmt.Errorf("unknown variant %q (want map or mrr)", o.variant)
	}

	cfg := clapf.DefaultConfig(v, train.NumPairs())
	cfg.Lambda = o.lambda
	cfg.Dim = o.dim
	cfg.Steps = o.epochs * train.NumPairs()
	cfg.LearnRate = o.rate
	cfg.RegUser, cfg.RegItem, cfg.RegBias = o.reg, o.reg, o.reg
	cfg.Seed = o.seed
	cfg.ClipNorm = o.clipNorm
	if o.dss {
		cfg.Sampler.Strategy = clapf.SamplerDSS
	}

	if o.watchdog && o.checkpointDir == "" {
		return fmt.Errorf("-watchdog needs a rollback target: pass -checkpoint-dir")
	}
	if o.maxRollbacks < 0 {
		return fmt.Errorf("-max-rollbacks %d: want >= 0", o.maxRollbacks)
	}
	trainer, err := clapf.NewTrainer(cfg, train)
	if err != nil {
		return err
	}

	// Prometheus export: register before training so the step counters
	// accumulate from the first segment.
	registry := obs.NewRegistry()
	trainer.RegisterMetrics(registry)
	// Per-stage latency attribution: train.* stage durations land in
	// clapf_stage_duration_seconds on the same registry (-prom-out picks
	// them up). SampleRate 0 keeps the flight recorder quiet — there is no
	// HTTP surface here; errored batches (guard trips) are still retained.
	tracer := trace.New(registry, "clapf_", trace.Config{SampleRate: 0})
	tracer.SetLogger(obs.NewTextLogger(w, slog.LevelWarn))
	trainer.SetTracer(tracer)

	// Guardrails: a guard is installed whenever clipping or the watchdog is
	// on (clipping alone still wants its counter flushed); the supervisor
	// only exists when the watchdog can roll back to checkpoints. Without
	// one the loop below neither scans nor rolls back.
	var sup *guard.Supervisor
	if o.watchdog || o.clipNorm > 0 {
		gm := guard.NewMetrics(registry)
		// The library default cadence (16384 steps) is tuned for
		// million-step runs; on a short run its 2×CheckEvery warmup would
		// suppress loss-rise detection entirely. The total step count is
		// known here, so clamp the cadence to 1/16 of the run — long runs
		// keep the cheap default, short runs still get several checks.
		gcfg := guard.Config{Watchdog: o.watchdog}
		if clamp := cfg.Steps / 16; clamp > 0 && clamp < guard.DefaultCheckEvery {
			gcfg.CheckEvery = clamp
		}
		if err := trainer.SetGuard(gcfg, gm); err != nil {
			return err
		}
		if o.watchdog {
			sup = &guard.Supervisor{
				Dir:          o.checkpointDir,
				MaxRollbacks: o.maxRollbacks,
				Metrics:      gm,
				Log:          obs.NewTextLogger(w, slog.LevelInfo),
			}
		}
	}

	// Telemetry: one structured line per interval, accumulated for the
	// optional JSON dump.
	logger := obs.NewTextLogger(w, slog.LevelInfo)
	every := o.logEvery
	if every <= 0 {
		every = train.NumPairs() // one epoch-equivalent
	}
	var intervals []intervalRecord
	err = trainer.SetStatsHook(every, func(st clapf.TrainStats) {
		logger.Info("telemetry",
			"step", st.Step,
			"total", st.TotalSteps,
			"loss", fmt.Sprintf("%.4f", st.SmoothedLoss),
			"grad_mag", fmt.Sprintf("%.4f", st.GradMag),
			"steps_per_sec", int(st.StepsPerSec),
			"elapsed", st.Elapsed.Round(time.Millisecond).String())
		intervals = append(intervals, intervalRecord{
			Step:           st.Step,
			SmoothedLoss:   st.SmoothedLoss,
			GradMag:        st.GradMag,
			StepsPerSec:    st.StepsPerSec,
			ElapsedSeconds: st.Elapsed.Seconds(),
		})
	})
	if err != nil {
		return err
	}
	posDraws := obs.NewHistogram(obs.RankBuckets(train.NumItems()))
	negDraws := obs.NewHistogram(obs.RankBuckets(train.NumItems()))
	trainer.InstrumentSampler(posDraws, negDraws)

	switch {
	case o.resume && o.checkpointDir == "":
		return fmt.Errorf("-resume requires -checkpoint-dir")
	case o.resume:
		if err := resumeFromCheckpoint(w, trainer, train, o); err != nil {
			return err
		}
	case o.checkpointDir != "":
		// Another run's generations would be this run's rollback targets (a
		// rollback checks neither fingerprint nor hyper-parameters) and
		// would outrank its own in the directory's step order.
		gens, err := store.ListCheckpoints(o.checkpointDir)
		if err != nil {
			return err
		}
		if len(gens) > 0 {
			return fmt.Errorf("-checkpoint-dir %s already holds %d checkpoint generation(s): pass -resume or an empty directory",
				o.checkpointDir, len(gens))
		}
	}

	stop := o.stopCh
	if stop == nil {
		stop = make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(stop)
	}

	fmt.Fprintf(w, "training CLAPF-%s λ=%.2f on %s: %d users, %d items, %d pairs, %d steps\n",
		v, o.lambda, train.Name(), train.NumUsers(), train.NumItems(), train.NumPairs(), cfg.Steps)
	ckptEvery := o.checkpointEvery
	if ckptEvery <= 0 {
		ckptEvery = train.NumPairs() // one epoch-equivalent
	}
	ropts := guard.RunOptions{
		TotalSteps: cfg.Steps,
		// Batches bound how long a stop signal waits for the loop;
		// checkpoint intervals above the cap simply span several batches.
		BatchSteps:      min(ckptEvery, 16384),
		CheckpointEvery: ckptEvery,
		// On a stop signal the current batch finishes, a final checkpoint is
		// written, and the run reports interrupted.
		Stop: func() bool {
			select {
			case sig := <-stop:
				fmt.Fprintf(w, "caught %s at step %d\n", sig, trainer.StepsDone())
				return true
			default:
				return false
			}
		},
	}
	if o.afterBatch != nil {
		ropts.AfterBatch = func(step int) { o.afterBatch(trainer, step) }
	}
	lastCkpt := ""
	if o.checkpointDir != "" {
		ropts.Checkpoint = func() (string, error) {
			ckptStart := time.Now()
			path, err := writeCheckpoint(trainer, train, o, cfg)
			tracer.ObserveStage("train.checkpoint", time.Since(ckptStart))
			lastCkpt = path
			return path, err
		}
	}
	start := time.Now()
	rep, interrupted, err := sup.Run(trainer, ropts)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if lastCkpt != "" {
		fmt.Fprintf(w, "checkpoint written to %s\n", lastCkpt)
	}
	if rb := rep.Rollbacks; len(rb) > 0 {
		fmt.Fprintf(w, "guard: recovered from %d rollback(s); final learning rate %g\n",
			len(rb), rb[len(rb)-1].LearnRate)
	}

	sps := 0.0
	if secs := wall.Seconds(); secs > 0 {
		sps = float64(trainer.StepsDone()) / secs
	}
	fmt.Fprintf(w, "trained %d steps in %s (%.0f steps/s), final smoothed loss %.4f\n",
		trainer.StepsDone(), wall.Round(time.Millisecond), sps, trainer.SmoothedLoss())
	if o.dss && negDraws.Count() > 0 {
		fmt.Fprintf(w, "DSS draws: mean positive rank %.1f, mean negative rank %.1f (of %d items)\n",
			posDraws.Mean(), negDraws.Mean(), train.NumItems())
	}

	if o.promOut != "" {
		var sb strings.Builder
		if err := registry.WritePrometheus(&sb); err != nil {
			return fmt.Errorf("rendering metrics: %w", err)
		}
		if err := os.WriteFile(o.promOut, []byte(sb.String()), 0o644); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		fmt.Fprintf(w, "metrics written to %s\n", o.promOut)
	}

	if o.metricsOut != "" {
		dump := telemetryDump{
			Variant:           v.String(),
			Lambda:            o.lambda,
			DSS:               o.dss,
			Steps:             trainer.StepsDone(),
			WallSeconds:       wall.Seconds(),
			StepsPerSec:       sps,
			FinalSmoothedLoss: trainer.SmoothedLoss(),
			Intervals:         intervals,
			PosDraws:          posDraws.Snapshot(),
			NegDraws:          negDraws.Snapshot(),
		}
		buf, err := json.MarshalIndent(dump, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding telemetry: %w", err)
		}
		if err := os.WriteFile(o.metricsOut, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing telemetry: %w", err)
		}
		fmt.Fprintf(w, "telemetry written to %s\n", o.metricsOut)
	}

	if interrupted {
		// The checkpoint (when enabled) is the durable artifact of an
		// interrupted run; evaluating or publishing a half-trained model
		// would be misleading, so both are skipped.
		if o.checkpointDir != "" {
			fmt.Fprintf(w, "interrupted at step %d; resume with -resume -checkpoint-dir %s\n",
				trainer.StepsDone(), o.checkpointDir)
		} else {
			fmt.Fprintf(w, "interrupted at step %d (no -checkpoint-dir; progress not saved)\n",
				trainer.StepsDone())
		}
		return nil
	}

	if o.testPath != "" {
		test, err := loadTSV(o.testPath)
		if err != nil {
			return err
		}
		res := clapf.Evaluate(trainer.Model(), train, test, clapf.EvalOptions{Workers: runtime.GOMAXPROCS(0)})
		fmt.Fprintf(w, "evaluated %d users in %s:\n", res.Users, res.Timing)
		for _, m := range res.AtK {
			fmt.Fprintf(w, "  k=%-3d Prec %.4f  Recall %.4f  F1 %.4f  1-call %.4f  NDCG %.4f\n",
				m.K, m.Prec, m.Recall, m.F1, m.OneCall, m.NDCG)
		}
		fmt.Fprintf(w, "  MAP %.4f  MRR %.4f  AUC %.4f\n", res.MAP, res.MRR, res.AUC)
	}

	if o.outPath != "" {
		if err := clapf.SaveModelFile(o.outPath, trainer.Model()); err != nil {
			return err
		}
		fmt.Fprintf(w, "model saved to %s\n", o.outPath)
	}
	if o.exportF32 != "" {
		f := mf.QuantizeF32(trainer.Model())
		if err := store.SaveF32File(o.exportF32, f, nil); err != nil {
			return err
		}
		fmt.Fprintf(w, "float32 model exported to %s (%d parameter bytes)\n",
			o.exportF32, f.ParamBytes())
	}
	return nil
}

// hyperMap renders the run's hyper-parameters for the checkpoint trailer;
// a resume refuses to continue under different values.
func hyperMap(o options) map[string]string {
	return map[string]string{
		"variant": o.variant,
		"lambda":  fmt.Sprintf("%g", o.lambda),
		"dss":     fmt.Sprintf("%t", o.dss),
		"dim":     fmt.Sprintf("%d", o.dim),
		"rate":    fmt.Sprintf("%g", o.rate),
		"reg":     fmt.Sprintf("%g", o.reg),
		"seed":    fmt.Sprintf("%d", o.seed),
		// Clipping alters the trajectory, so a resume must match it; old
		// checkpoints without the key resume freely.
		"clip_norm": fmt.Sprintf("%g", o.clipNorm),
	}
}

// writeCheckpoint snapshots the trainer into a durable float64 checkpoint
// generation (the model file plus the resume metadata), pruning old
// generations beyond -checkpoint-keep. It runs between RunSteps calls.
func writeCheckpoint(trainer *clapf.Trainer, train *clapf.Dataset, o options, cfg clapf.Config) (string, error) {
	meta := trainer.MetaSnapshot()
	meta.Epoch = meta.Step / train.NumPairs()
	meta.TotalSteps = cfg.Steps
	meta.DataFingerprint = train.Fingerprint()
	meta.Hyper = hyperMap(o)
	return store.WriteCheckpoint(o.checkpointDir, trainer.Model(), meta, o.checkpointKeep)
}

// resumeFromCheckpoint restores the trainer from the newest valid
// generation in -checkpoint-dir, refusing checkpoints from a different
// dataset or hyper-parameter setting.
func resumeFromCheckpoint(w io.Writer, trainer *clapf.Trainer, train *clapf.Dataset, o options) error {
	model, meta, path, skipped, err := store.LatestCheckpoint(o.checkpointDir)
	for _, s := range skipped {
		fmt.Fprintf(w, "skipping invalid checkpoint %s\n", s)
	}
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if meta.DataFingerprint != 0 && meta.DataFingerprint != train.Fingerprint() {
		return fmt.Errorf("resume: checkpoint %s was trained on different data (fingerprint %016x, dataset has %016x)",
			path, meta.DataFingerprint, train.Fingerprint())
	}
	if err := hyperCompatible(meta.Hyper, hyperMap(o)); err != nil {
		return fmt.Errorf("resume: checkpoint %s: %w", path, err)
	}
	// RestoreFromMeta is where a trailer of the wrong shape — one a
	// multi-worker run wrote, say — is refused.
	if err := trainer.RestoreFromMeta(model, meta); err != nil {
		return fmt.Errorf("resume: checkpoint %s: %w", path, err)
	}
	fmt.Fprintf(w, "resumed from %s at step %d (epoch %d)\n", path, meta.Step, meta.Epoch)
	return nil
}

// hyperCompatible reports the first hyper-parameter present in both maps
// whose values disagree.
func hyperCompatible(ckpt, now map[string]string) error {
	for k, want := range now {
		if got, ok := ckpt[k]; ok && got != want {
			return fmt.Errorf("hyper-parameter %s = %s in checkpoint, %s requested", k, got, want)
		}
	}
	return nil
}

func loadTSV(path string) (*clapf.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return clapf.ReadDatasetTSV(f)
}
