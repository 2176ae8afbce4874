package core

import (
	"math"
	"strings"
	"testing"

	"clapf/internal/guard"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/sampling"
	"clapf/internal/store"
)

func TestConfigValidateNonFinite(t *testing.T) {
	// NaN fails every ordered comparison, so the range checks alone let
	// NaN hypers through; the finiteness pass must reject them by name.
	base := DefaultConfig(sampling.MAP, 100)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"Lambda", func(c *Config) { c.Lambda = math.NaN() }},
		{"LearnRate", func(c *Config) { c.LearnRate = math.NaN() }},
		{"LearnRate", func(c *Config) { c.LearnRate = math.Inf(1) }},
		{"RegUser", func(c *Config) { c.RegUser = math.NaN() }},
		{"RegItem", func(c *Config) { c.RegItem = math.Inf(-1) }},
		{"RegBias", func(c *Config) { c.RegBias = math.NaN() }},
		{"InitStd", func(c *Config) { c.InitStd = math.NaN() }},
		{"ClipNorm", func(c *Config) { c.ClipNorm = math.NaN() }},
		{"ClipNorm", func(c *Config) { c.ClipNorm = math.Inf(1) }},
	} {
		cfg := base
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), "finite") {
			t.Errorf("non-finite %s: Validate() = %v, want finiteness error naming it", tc.name, err)
		}
	}
	neg := base
	neg.ClipNorm = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative ClipNorm accepted")
	}
	ok := base
	ok.ClipNorm = 5
	if err := ok.Validate(); err != nil {
		t.Errorf("positive ClipNorm rejected: %v", err)
	}
}

// TestClipScalarMatchesBruteForce checks the closed-form gradient norm
// behind Kernel.Clip against an explicitly assembled data-term gradient:
// ∂/∂U_u = g·(a·V_i + b·V_k + c·V_j), ∂/∂V_t = g·coeff_t·U_u,
// ∂/∂b_t = g·coeff_t.
func TestClipScalarMatchesBruteForce(t *testing.T) {
	rng := mathx.NewRNG(11)
	for _, bias := range []bool{true, false} {
		const dim = 6
		m := mf.MustNew(mf.Config{NumUsers: 1, NumItems: 3, Dim: dim, UseBias: bias})
		kern := NewKernel(m, Plain)
		for trial := 0; trial < 50; trial++ {
			m.InitGaussian(rng, 1)
			uf, vi, vk, vj := m.UserFactors(0), m.ItemFactors(0), m.ItemFactors(1), m.ItemFactors(2)
			a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			g := 0.5 + rng.Float64()

			var normsq float64
			for q := 0; q < dim; q++ {
				du := g * (a*vi[q] + b*vk[q] + c*vj[q])
				dvi, dvk, dvj := g*a*uf[q], g*b*uf[q], g*c*uf[q]
				normsq += du*du + dvi*dvi + dvk*dvk + dvj*dvj
			}
			if bias {
				normsq += g*g*a*a + g*g*b*b + g*g*c*c
			}
			norm := math.Sqrt(normsq)

			kern.Risk(0, []int32{0, 1, 2}, []float64{a, b, c})
			// A threshold above the norm leaves g untouched — exactly.
			if got, clipped := kern.Clip(g, norm*1.01); clipped || got != g {
				t.Fatalf("bias=%v trial %d: under-threshold clip = (%v, %v), want (%v, false)", bias, trial, got, clipped, g)
			}
			// A threshold below the norm scales g so the norm lands on cn.
			cn := norm * 0.37
			got, clipped := kern.Clip(g, cn)
			if !clipped {
				t.Fatalf("bias=%v trial %d: over-threshold update not clipped", bias, trial)
			}
			if want := g * cn / norm; math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("bias=%v trial %d: clipped g = %v, want %v", bias, trial, got, want)
			}
		}
	}
}

// TestClipNormOffPathBitIdentical pins the zero-overhead contract: a huge
// clip threshold (never reached) must reproduce the unclipped run bit for
// bit, because clipping only rescales g after the same accumulations.
func TestClipNormOffPathBitIdentical(t *testing.T) {
	d := smallData(t, 7)
	run := func(clip float64) (u, v, b []float64, clips uint64) {
		cfg := quickConfig(sampling.MAP)
		cfg.Steps = 5000
		cfg.ClipNorm = clip
		tr, err := NewTrainer(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		tr.Run()
		u, v, b = tr.Model().RawParams()
		return u, v, b, tr.GradClips()
	}
	u0, v0, b0, _ := run(0)
	u1, v1, b1, clips := run(1e9)
	if clips != 0 {
		t.Fatalf("clip threshold 1e9 still clipped %d updates", clips)
	}
	for name, pair := range map[string][2][]float64{
		"U": {u0, u1}, "V": {v0, v1}, "B": {b0, b1},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d]: unclipped %v vs never-reached-threshold %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

func TestClipNormBoundsUpdatesAndStillLearns(t *testing.T) {
	d := smallData(t, 8)
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 8000
	cfg.ClipNorm = 0.05 // tight enough to engage on early large-g updates
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run()
	if tr.GradClips() == 0 {
		t.Fatal("tight clip threshold never engaged")
	}
	if u, v, b := tr.Model().CountNonFinite(); u+v+b > 0 {
		t.Fatalf("clipped run produced %d non-finite params", u+v+b)
	}
	// Clipping caps step sizes, not learning: observed items should still
	// pull ahead of unobserved ones for most users.
	better, total := 0, 0
	for u := int32(0); u < int32(d.NumUsers()); u++ {
		pos := d.Positives(u)
		if len(pos) == 0 {
			continue
		}
		total++
		if tr.Model().Score(u, pos[0]) > tr.Model().Score(u, (pos[0]+37)%int32(d.NumItems())) {
			better++
		}
	}
	if better*2 < total {
		t.Errorf("clipped run learned for only %d/%d users", better, total)
	}
}

func TestSetGuardValidates(t *testing.T) {
	d := smallData(t, 9)
	tr, err := NewTrainer(quickConfig(sampling.MAP), d)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetGuard(guard.Config{RiseFactor: 0.5}, nil); err == nil {
		t.Error("serial SetGuard accepted RiseFactor 0.5")
	}
	pt, err := NewParallelTrainer(quickConfig(sampling.MAP), d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.SetGuard(guard.Config{RisePatience: -1}, nil); err == nil {
		t.Error("parallel SetGuard accepted RisePatience -1")
	}
}

// TestSetGuardTwiceCountsClipsOnce replaces an installed guard mid-run
// (documented as allowed): the clips the first guard already exported to
// clapf_grad_clip_total must not be exported again by the second.
func TestSetGuardTwiceCountsClipsOnce(t *testing.T) {
	d := smallData(t, 8)
	cfg := quickConfig(sampling.MAP)
	cfg.ClipNorm = 0.05
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	gm := guard.NewMetrics(obs.NewRegistry())
	if err := tr.SetGuard(guard.Config{}, gm); err != nil {
		t.Fatal(err)
	}
	tr.RunSteps(2000)
	if tr.GradClips() == 0 || gm.Clips.Value() != tr.GradClips() {
		t.Fatalf("first guard exported %d clips, trainer counted %d (want equal and > 0)", gm.Clips.Value(), tr.GradClips())
	}
	if err := tr.SetGuard(guard.Config{CheckEvery: 128}, gm); err != nil {
		t.Fatal(err)
	}
	tr.RunSteps(2000)
	if gm.Clips.Value() != tr.GradClips() {
		t.Errorf("after replacing the guard the counter reads %d, trainer counted %d", gm.Clips.Value(), tr.GradClips())
	}
}

func TestScaleLearnRate(t *testing.T) {
	d := smallData(t, 10)
	cfg := quickConfig(sampling.MAP)
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.ScaleLearnRate(0.5); math.Abs(got-cfg.LearnRate*0.5) > 1e-15 {
		t.Errorf("serial ScaleLearnRate = %v, want %v", got, cfg.LearnRate*0.5)
	}
	pt, err := NewParallelTrainer(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt.ScaleLearnRate(0.5)
	if got := pt.ScaleLearnRate(0.5); math.Abs(got-cfg.LearnRate*0.25) > 1e-15 {
		t.Errorf("parallel ScaleLearnRate compounded to %v, want %v", got, cfg.LearnRate*0.25)
	}
}

// TestSerialGuardTripsOnPoison poisons the whole item matrix mid-run: the
// per-step risk sentinel (any sampled triple now scores NaN) must trip and
// freeze the trainer until the trip is cleared.
func TestSerialGuardTripsOnPoison(t *testing.T) {
	d := smallData(t, 12)
	cfg := quickConfig(sampling.MAP)
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetGuard(guard.Config{Watchdog: true, CheckEvery: 256}, nil); err != nil {
		t.Fatal(err)
	}
	tr.RunSteps(1000)
	if tr.GuardTrip() != nil {
		t.Fatalf("healthy run tripped: %v", tr.GuardTrip())
	}
	_, v, _ := tr.Model().RawParams()
	for i := range v {
		v[i] = math.NaN()
	}
	tr.RunSteps(1000)
	trip := tr.GuardTrip()
	if trip == nil {
		t.Fatal("poisoned run never tripped")
	}
	if trip.Reason != guard.ReasonNonFiniteRisk && trip.Reason != guard.ReasonNonFiniteParams {
		t.Fatalf("trip reason = %s", trip.Reason)
	}
	// A tripped trainer stops consuming steps until re-armed.
	before := tr.StepsDone()
	tr.RunSteps(500)
	if tr.StepsDone() != before {
		t.Errorf("tripped trainer advanced from %d to %d", before, tr.StepsDone())
	}
}

// TestParallelGuardTripsOnPoison is the Hogwild twin: worker-local
// sentinels must surface the trip at a segment barrier.
func TestParallelGuardTripsOnPoison(t *testing.T) {
	d := smallData(t, 13)
	cfg := quickConfig(sampling.MAP)
	pt, err := NewParallelTrainer(cfg, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.SetGuard(guard.Config{Watchdog: true, CheckEvery: 256}, nil); err != nil {
		t.Fatal(err)
	}
	pt.RunSteps(1000)
	if pt.GuardTrip() != nil {
		t.Fatalf("healthy run tripped: %v", pt.GuardTrip())
	}
	_, v, _ := pt.Model().RawParams()
	for i := range v {
		v[i] = math.NaN()
	}
	pt.RunSteps(1000)
	trip := pt.GuardTrip()
	if trip == nil {
		t.Fatal("poisoned run never tripped")
	}
	if trip.Step == 0 || trip.Step > pt.StepsDone() {
		t.Errorf("merged trip stamped with step %d (done %d)", trip.Step, pt.StepsDone())
	}
	before := pt.StepsDone()
	pt.RunSteps(500)
	if pt.StepsDone() != before {
		t.Errorf("tripped trainer advanced from %d to %d", before, pt.StepsDone())
	}
}

// TestWatchdogCatchesExplodingLR drives the learning rate into overflow
// territory mid-run and requires a trip — divergence detection end to end,
// with no parameter touched by the test itself.
func TestWatchdogCatchesExplodingLR(t *testing.T) {
	d := smallData(t, 14)
	cfg := quickConfig(sampling.MAP)
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.SetGuard(guard.Config{Watchdog: true, CheckEvery: 256, WarmupSteps: 512}, nil); err != nil {
		t.Fatal(err)
	}
	tr.RunSteps(4000)
	if tr.GuardTrip() != nil {
		t.Fatalf("healthy run tripped: %v", tr.GuardTrip())
	}
	tr.ScaleLearnRate(1e8)
	for i := 0; i < 40 && tr.GuardTrip() == nil; i++ {
		tr.RunSteps(512)
	}
	if tr.GuardTrip() == nil {
		t.Fatal("watchdog never tripped under an exploding learning rate")
	}
}

func TestMetaSnapshotRoundTripSerial(t *testing.T) {
	d := smallData(t, 15)
	cfg := quickConfig(sampling.MAP)
	cfg.Steps = 8000

	ref, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunSteps(3000)
	meta := ref.MetaSnapshot()
	if meta.Step != 3000 || len(meta.Workers) != 0 {
		t.Fatalf("meta = %+v, want serial trailer at step 3000", meta)
	}
	frozen := ref.Model().Clone()
	ref.RunSteps(5000)

	resumed, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreFromMeta(frozen, meta); err != nil {
		t.Fatal(err)
	}
	resumed.RunSteps(5000)

	ru, rv, rb := ref.Model().RawParams()
	su, sv, sb := resumed.Model().RawParams()
	for name, pair := range map[string][2][]float64{
		"U": {ru, su}, "V": {rv, sv}, "B": {rb, sb},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d]: straight-through %v vs meta round-trip %v", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

func TestMetaSnapshotRoundTripParallel(t *testing.T) {
	d := smallData(t, 16)
	cfg := quickConfig(sampling.MAP)

	// Single worker: the only parallel configuration with a deterministic
	// trajectory, so the round-trip can demand bit-identity.
	ref, err := NewParallelTrainer(cfg, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunSteps(2000)
	meta := ref.MetaSnapshot()
	if len(meta.Workers) != 0 || len(meta.RNG) != 4 {
		t.Fatalf("meta = %+v, want the one-worker (serial) trailer shape", meta)
	}
	frozen := ref.Model().Clone()
	ref.RunSteps(3000)

	resumed, err := NewParallelTrainer(cfg, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreFromMeta(frozen, meta); err != nil {
		t.Fatal(err)
	}
	resumed.RunSteps(3000)

	ru, _, _ := ref.Model().RawParams()
	su, _, _ := resumed.Model().RawParams()
	for i := range ru {
		if ru[i] != su[i] {
			t.Fatalf("U[%d]: straight-through %v vs meta round-trip %v", i, ru[i], su[i])
		}
	}
}

func TestRestoreFromMetaErrors(t *testing.T) {
	d := smallData(t, 17)
	cfg := quickConfig(sampling.MAP)
	tr, err := NewTrainer(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewParallelTrainer(cfg, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Model().Clone()

	if err := tr.RestoreFromMeta(m, nil); err == nil {
		t.Error("serial: nil meta accepted")
	}
	if err := pt.RestoreFromMeta(m, nil); err == nil {
		t.Error("parallel: nil meta accepted")
	}
	// Cross-topology trailers are rejected by shape, not by crashing.
	parallelMeta := pt.MetaSnapshot()
	if err := tr.RestoreFromMeta(m, parallelMeta); err == nil || !strings.Contains(err.Error(), "parallel") {
		t.Errorf("serial trainer took a parallel trailer: %v", err)
	}
	serialMeta := tr.MetaSnapshot()
	if err := pt.RestoreFromMeta(m, serialMeta); err == nil || !strings.Contains(err.Error(), "serial") {
		t.Errorf("parallel trainer took a serial trailer: %v", err)
	}
	// Truncated RNG state is a corrupt trailer.
	bad := tr.MetaSnapshot()
	bad.RNG = bad.RNG[:2]
	if err := tr.RestoreFromMeta(m, bad); err == nil || !strings.Contains(err.Error(), "state words") {
		t.Errorf("truncated RNG accepted: %v", err)
	}
	var _ *store.Meta = serialMeta // the trailer type is the store schema, not a core shadow
}
