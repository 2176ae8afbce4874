package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"clapf/internal/baselines"
	"clapf/internal/core"
	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/sampling"
	"clapf/internal/score"
)

// chunksPerRefresh is how many timed operations of train_ml1m one DSS
// rank-list rebuild spans. A chunk — the workload's operation — is a
// sixteenth of the sampler's default refresh period (items × ⌈log₂ items⌉
// draws), so one chunk in sixteen carries a rebuild. Sixteen puts the
// rebuilding chunks at 6.25 % of all, so the 95th percentile of the chunks
// sits a fifth of the way up them: a rebuild that little disturbed. With
// four chunks to a period it sat a fifth of the way down from the slowest,
// and moved 27–29 % from run to run of one commit where the median chunk
// moved under 25 % (a rebuild sorts the items once per factor and rewrites
// every user's sorted positives, and takes 35–58 ms depending on who else is
// using the memory system).
const chunksPerRefresh = 16

// secondsPerRun converts the run's --seconds into arm A runs: one run of ten
// passes takes 3.5–4.5 s on the reference box.
const secondsPerRun = 5

func trainChunk(items int) int {
	return items * int(math.Ceil(math.Log2(float64(items)))) / chunksPerRefresh
}

// popRankFloor is the share of PopRank's test MAP that arm A must reach.
const popRankFloor = 0.9

// stepper is what the serial and the parallel trainer share.
type stepper interface {
	RunSteps(n int)
	Model() *mf.Model
}

// armRun is one trainer run, timed chunk by chunk.
type armRun struct {
	chunks []timed // lat = the chunk's wall time in ms
	chunk  int     // steps per chunk (the last one may be shorter)
	span   float64 // seconds
	steps  int
}

// slicePeriods is how many refresh periods make one slice of a run: two,
// 32 chunks, the fewest that leave ten chunks beyond the median.
const slicePeriods = 2

// slices cuts the run into pairs of whole refresh periods, 0.11 s each at
// full size and every one the same work: thirty chunks of plain stepping
// and two that also rebuild. The box's slow spells last from a second to
// minutes, so short slices find the calm moments that long ones straddle:
// over the same sixteen disturbed runs the best pair's median chunk
// repeated within 10–25 % (distance between the quartiles, two batches)
// where the best quarter-run's repeated within 14–31 %, and the rate within
// 14–30 % against 17–36 %. Chunks left over at the end are dropped.
func (a *armRun) slices() [][]timed {
	per := slicePeriods * chunksPerRefresh
	n := len(a.chunks) / per
	if n == 0 {
		return [][]timed{a.chunks}
	}
	out := make([][]timed, n)
	for i := range out {
		out[i] = a.chunks[i*per : (i+1)*per]
	}
	return out
}

// fastestQuarter returns the quarter of the slices that took the least
// time in total.
func fastestQuarter(slices [][]timed) [][]timed {
	total := func(sl []timed) (ms float64) {
		for _, c := range sl {
			ms += c.lat
		}
		return ms
	}
	sorted := append([][]timed(nil), slices...)
	sort.Slice(sorted, func(a, b int) bool { return total(sorted[a]) < total(sorted[b]) })
	return sorted[:(len(sorted)+3)/4]
}

// sliceRates returns each slice's steps per second.
func (a *armRun) sliceRates() []float64 {
	var rates []float64
	for _, part := range a.slices() {
		var ms float64
		for _, c := range part {
			ms += c.lat
		}
		rates = append(rates, float64(len(part)*a.chunk)/(ms/1e3))
	}
	return rates
}

// stepsPerS is steps over wall time, for arms too short to slice.
func (a *armRun) stepsPerS() float64 { return float64(a.steps) / a.span }

func timeArm(t stepper, steps, chunk int) armRun {
	run := armRun{steps: steps, chunk: chunk}
	start := time.Now()
	for done := 0; done < steps; done += chunk {
		n := chunk
		if steps-done < n {
			n = steps - done
		}
		t0 := time.Now()
		t.RunSteps(n)
		t1 := time.Now()
		run.chunks = append(run.chunks, timed{lat: float64(t1.Sub(t0)) / 1e6})
	}
	run.span = time.Since(start).Seconds()
	return run
}

func armConfig(variant sampling.Objective, strategy sampling.Strategy, train *dataset.Dataset, epochs int, seed uint64) core.Config {
	cfg := core.DefaultConfig(variant, train.NumPairs())
	cfg.Sampler.Strategy = strategy
	cfg.Steps = epochs * train.NumPairs()
	cfg.Seed = seed
	return cfg
}

func sameModel(a, b *mf.Model) bool {
	au, av, ab := a.RawParams()
	bu, bv, bb := b.RawParams()
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return same(au, bu) && same(av, bv) && same(ab, bb)
}

// runTrain is the paper's own workload: CLAPF training on an ML1M-shaped
// corpus with a 50/50 split, then the full-ranking evaluation. No serving
// layer runs. The end-to-end run trains arm A (serial CLAPF-MAP with DSS)
// once per secondsPerRun of --seconds, at least twice, from the same seed —
// every further run is both the determinism check and more timing slices.
// The traced run adds arm B (CLAPF-MRR), arm C (two Hogwild workers), arm D
// (uniform sampling) and the sampler probes.
func runTrain(cfg runConfig, rep *report) error {
	sz := cfg.size
	profile, err := datagen.ProfileByName("ML1M")
	if err != nil {
		return err
	}
	t0 := time.Now()
	world, err := datagen.Generate(profile.Scaled(sz.trainScale), mathx.NewRNG(worldSeed))
	if err != nil {
		return err
	}
	rep.set("datagen.generate_s", time.Since(t0).Seconds())

	// Set-up is what clapf-train does before its first step: split, then
	// build the trainer (model init, sampler rank lists).
	var train, test *dataset.Dataset
	newArmA := func() (*core.Trainer, error) {
		train, test = dataset.Split(world.Data, mathx.NewRNG(cfg.seed+1), 0.5)
		return core.NewTrainer(armConfig(sampling.MAP, sampling.DSS, train, sz.trainEpochs, cfg.seed+2), train)
	}
	var took []float64
	var armA *core.Trainer
	for i := 0; i < sz.setups; i++ {
		t0 := time.Now()
		if armA, err = newArmA(); err != nil {
			return err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(took))
	rep.logf("set-up times (s): %.4f; %d users × %d items, %d training pairs", took, train.NumUsers(), train.NumItems(), train.NumPairs())

	steps := sz.trainEpochs * train.NumPairs()
	chunk := trainChunk(train.NumItems())
	runs := []armRun{timeArm(armA, steps, chunk)}
	// The evaluated users are a fixed draw, not the run seed's: MAP over
	// two thousand sampled users moves by 3 % with the sample alone.
	evalOpts := func() eval.Options {
		return eval.Options{Workers: numProcs(), MaxUsers: sz.evalUsers, RNG: mathx.NewRNG(worldSeed + 1)}
	}
	t0 = time.Now()
	resA := eval.Evaluate(score.NewEngine(armA.Model()), train, test, evalOpts())
	evalTook := time.Since(t0)
	if !cfg.traced {
		// More runs from the same seed: the determinism check, and timing
		// slices spread over the length of the run.
		more := int(cfg.seconds/secondsPerRun+0.5) - 1
		if more < 1 {
			more = 1
		}
		for i := 0; i < more; i++ {
			runtime.GC() // the previous run's trainer is garbage; peak_rss_mb should not depend on when the collector notices
			again, err := newArmA()
			if err != nil {
				return err
			}
			runs = append(runs, timeArm(again, steps, chunk))
			rep.check(sameModel(armA.Model(), again.Model()), "two serial runs from seed %d ended in different models", cfg.seed)
		}
	}
	pop := baselines.NewPopRank()
	if err := pop.Fit(train); err != nil {
		return err
	}
	resPop := eval.Evaluate(pop, train, test, evalOpts())
	// Ten passes are what the run-time cap affords; the synthetic corpora
	// need some two hundred before CLAPF pulls clear of popularity (see
	// EXPERIMENTS.md), and at ten it sits at PopRank's level. The check
	// therefore catches a trainer that stopped learning, not one that
	// lost a few per cent.
	rep.check(resA.MAP >= popRankFloor*resPop.MAP, "CLAPF-MAP test MAP %.5f is below %.0f%% of PopRank's %.5f on the same split",
		resA.MAP, 100*popRankFloor, resPop.MAP)
	rep.set("test_map", resA.MAP)
	rep.set("quality", resA.MAP)
	rep.set("eval_users_per_s", float64(resA.Users)/evalTook.Seconds())

	// A chunk is the workload's operation. Its median is plain stepping,
	// taken per slice; one chunk in sixteen also rebuilds the DSS rank
	// lists, and that is where the 95th percentile sits. A slice is too few
	// chunks to support that percentile, so it is taken over the chunks of
	// the fastest quarter of the slices together (slicedPercentile pools
	// them): best, for a percentile that needs two hundred samples.
	var rates []float64
	var bySlice [][]timed
	for _, r := range runs {
		rates = append(rates, r.sliceRates()...)
		bySlice = append(bySlice, r.slices()...)
		rep.attempted += len(r.chunks)
	}
	rateA := best(rates, false)
	rep.set("op_p50_ms", slicedPercentile(bySlice, 0.5))
	rep.set("op_p95_ms", slicedPercentile(fastestQuarter(bySlice), 0.95))
	rep.set("ops_per_s", rateA)
	rep.set("train_steps_per_s", rateA)
	rep.logf("arm A: %d runs of %d steps, %.0f steps/s; test MAP %.5f (PopRank %.5f), %d users evaluated at %.0f users/s",
		len(runs), steps, rateA, resA.MAP, resPop.MAP, resA.Users, float64(resA.Users)/evalTook.Seconds())

	if cfg.traced {
		if err := trainLayers(cfg, rep, train, test, armA, rateA, resA, evalOpts); err != nil {
			return err
		}
	}
	rep.set("peak_rss_mb", peakRSSMB())
	return nil
}

// trainLayers runs the arms and probes that explain arm A's numbers.
func trainLayers(cfg runConfig, rep *report, train, test *dataset.Dataset, armA *core.Trainer, rateA float64, resA eval.Result, evalOpts func() eval.Options) error {
	sz := cfg.size
	steps := sz.trainEpochs * train.NumPairs()

	armB, err := core.NewTrainer(armConfig(sampling.MRR, sampling.DSS, train, sz.trainEpochs, cfg.seed+2), train)
	if err != nil {
		return err
	}
	armB.RunSteps(steps)
	resB := eval.Evaluate(score.NewEngine(armB.Model()), train, test, evalOpts())
	rep.set("test_mrr", resB.MRR)

	// Arm C: arm A's configuration on two Hogwild workers, timed one pass
	// over the pairs at a time (its barriers make shorter chunks unfair).
	armC, err := core.NewParallelTrainer(armConfig(sampling.MAP, sampling.DSS, train, sz.trainEpochs, cfg.seed+2), train, 2)
	if err != nil {
		return err
	}
	c := timeArm(armC, steps, train.NumPairs())
	rep.set("train_par_steps_per_s", c.stepsPerS())
	rep.set("core.par_speedup", c.stepsPerS()/rateA)

	// Arm D: the same update step without the DSS sampling cost.
	armD, err := core.NewTrainer(armConfig(sampling.MAP, sampling.Uniform, train, 3, cfg.seed+2), train)
	if err != nil {
		return err
	}
	d := timeArm(armD, 3*train.NumPairs(), train.NumPairs()/4+1)
	rep.set("core.uniform_steps_per_s", d.stepsPerS())

	if total := resA.Timing.Score + resA.Timing.Rank + resA.Timing.Metrics; total > 0 {
		rep.set("eval.score_share", float64(resA.Timing.Score)/float64(total))
		rep.set("eval.rank_share", float64(resA.Timing.Rank)/float64(total))
	}

	// Sampler probes, against arm A's trained model. The refresh cadence
	// is pushed out of reach so Sample is timed without a rebuild; Refresh
	// is timed on its own.
	var users []int32
	for u := int32(0); int(u) < train.NumUsers(); u++ {
		if n := train.NumPositives(u); n > 0 && n < train.NumItems() {
			users = append(users, u)
		}
	}
	perSample := func(strategy sampling.Strategy) (float64, *sampling.TripleSampler, error) {
		s, err := sampling.NewTripleSampler(sampling.TripleConfig{Strategy: strategy, Objective: sampling.MAP, RefreshEvery: math.MaxInt32},
			train, armA.Model(), mathx.NewRNG(cfg.seed+4))
		if err != nil {
			return 0, nil, err
		}
		n := 1000 * sz.probeIters
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Sample(users[i%len(users)])
		}
		return float64(time.Since(t0)) / float64(n), s, nil
	}
	ns, dss, err := perSample(sampling.DSS)
	if err != nil {
		return err
	}
	rep.set("sampling.dss_sample_ns", ns)
	if ns, _, err = perSample(sampling.Uniform); err != nil {
		return err
	}
	rep.set("sampling.uniform_sample_ns", ns)
	var refresh []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		dss.Refresh()
		refresh = append(refresh, float64(time.Since(t0))/1e6)
	}
	rep.set("sampling.refresh_ms", median(refresh))
	rep.set("mf.param_mb", float64(armA.Model().ParamBytes())/(1<<20))
	rep.set("failed_share", float64(rep.failed)/float64(rep.attempted))
	rep.logf("arm B test MRR %.5f; arm C %.0f steps/s (%.2f× arm A); arm D %.0f steps/s; DSS refresh %.1f ms",
		resB.MRR, c.stepsPerS(), c.stepsPerS()/rateA, d.stepsPerS(), median(refresh))
	return nil
}
