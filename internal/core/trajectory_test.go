package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/guard"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/obs/trace"
	"clapf/internal/sampling"
)

// pinTrajectories rewrites testdata/trajectories.json from this build.
// The committed file was recorded at the commit *before* the SGD copies
// were collapsed into the step kernel (ac980a1), so the test below holds
// the kernel to the old loops bit for bit. Re-record only when a change
// is meant to alter the arithmetic, and say so in the PR.
var pinTrajectories = flag.Bool("pin", false, "rewrite testdata/trajectories.json from this build")

const trajectoryFile = "testdata/trajectories.json"

// trajectoryWorld is the seeded corpus every pinned run trains on: a
// small generated world plus five single-positive users, so the k == i
// fold (the listwise pair vanishes, one item row is skipped) is on the
// pinned path too.
func trajectoryWorld(t *testing.T) *dataset.Dataset {
	t.Helper()
	w, err := datagen.Generate(datagen.Profile{
		Name: "pin", Users: 60, Items: 120, Pairs: 1500,
		ZipfExp: 0.7, Dim: 5, Affinity: 6,
	}, mathx.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	pairs := w.Data.Interactions()
	users := w.Data.NumUsers()
	for s := 0; s < 5; s++ {
		pairs = append(pairs, dataset.Interaction{User: int32(users + s), Item: int32(7 * s)})
	}
	d, err := dataset.FromInteractions("pin", users+5, w.Data.NumItems(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// paramsHash is a digest of every parameter's exact bit pattern.
func paramsHash(m *mf.Model) string {
	h := sha256.New()
	var buf [8]byte
	u, v, b := m.RawParams()
	for _, s := range [][]float64{u, v, b} {
		for _, x := range s {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// firingClip is a ClipNorm tight enough to clip early large-g updates on
// trajectoryWorld (the test asserts that it did).
const firingClip = 0.05

type trajectoryCase struct {
	name string
	cfg  Config
}

func trajectoryCases() []trajectoryCase {
	var cases []trajectoryCase
	for _, variant := range []sampling.Objective{sampling.MAP, sampling.MRR} {
		for _, strat := range []sampling.Strategy{sampling.Uniform, sampling.DSS} {
			for _, bias := range []bool{true, false} {
				for _, clip := range []float64{0, firingClip} {
					cfg := DefaultConfig(variant, 1500)
					cfg.Dim = 8
					cfg.Steps = 6000
					cfg.Seed = 77
					cfg.UseBias = bias
					cfg.ClipNorm = clip
					// 700 does not divide 6000: refreshes land mid-run
					// and the run ends between two of them.
					cfg.Sampler = sampling.TripleConfig{Strategy: strat, RefreshEvery: 700}
					cases = append(cases, trajectoryCase{
						name: fmt.Sprintf("%v/%v/bias=%t/clip=%g", variant, strat, bias, clip),
						cfg:  cfg,
					})
				}
			}
		}
	}
	return cases
}

func multiTrajectoryConfig(bias bool) Config {
	cfg := multiConfig(1500, DefaultMulti())
	cfg.Dim = 8
	cfg.Steps = 6000
	cfg.Seed = 77
	cfg.UseBias = bias
	return cfg
}

func runTrajectories(t *testing.T) map[string]string {
	t.Helper()
	d := trajectoryWorld(t)
	got := map[string]string{}
	for _, c := range trajectoryCases() {
		tr, err := NewTrainer(c.cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		tr.Run()
		if c.cfg.ClipNorm > 0 && tr.GradClips() == 0 {
			t.Fatalf("%s: ClipNorm %g never fired", c.name, c.cfg.ClipNorm)
		}
		got[c.name] = paramsHash(tr.Model())
	}
	for _, bias := range []bool{true, false} {
		mt, err := NewTrainer(multiTrajectoryConfig(bias), d)
		if err != nil {
			t.Fatal(err)
		}
		mt.Run()
		got[fmt.Sprintf("Multi/bias=%t", bias)] = paramsHash(mt.Model())
	}
	return got
}

func TestTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Where the compiler fuses x*y+z into one rounding (arm64, ppc64le,
		// s390x, riscv64) both the old loops and the kernel land on other
		// bits than the amd64 build the pins were recorded on.
		t.Skipf("trajectories are pinned for amd64, this is %s", runtime.GOARCH)
	}
	got := runTrajectories(t)
	if *pinTrajectories {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(trajectoryFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trajectoryFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pinned %d trajectories to %s", len(got), trajectoryFile)
		return
	}
	buf, err := os.ReadFile(trajectoryFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d pinned trajectories, %d run", len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: parameters hash to %s, pinned %s", name, h, want[name])
		}
	}
}

// TestTrajectoryOneWorkerIsSerial is "serial is parallel with one worker"
// as a test: NewParallelTrainer(cfg, d, 1) ends on the same bits as
// NewTrainer(cfg, d) — same RNG streams, same self-refreshing sampler —
// and so does a run that is chopped into uneven RunSteps calls and
// carries the whole instrumentation stack (guard, hook, tracer), because
// none of those may touch the trajectory.
func TestTrajectoryOneWorkerIsSerial(t *testing.T) {
	d := trajectoryWorld(t)
	for _, c := range trajectoryCases() {
		if c.cfg.Variant != sampling.MAP || !c.cfg.UseBias {
			continue
		}
		serial, err := NewTrainer(c.cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		serial.Run()
		want := paramsHash(serial.Model())

		one, err := NewParallelTrainer(c.cfg, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		one.Run()
		if got := paramsHash(one.Model()); got != want {
			t.Errorf("%s: NewParallelTrainer(…, 1) ends at %s, NewTrainer at %s", c.name, got, want)
		}

		inst, err := NewTrainer(c.cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if err := inst.SetGuard(guard.Config{Watchdog: true, CheckEvery: 256}, guard.NewMetrics(reg)); err != nil {
			t.Fatal(err)
		}
		if err := inst.SetStatsHook(333, func(TrainStats) {}); err != nil {
			t.Fatal(err)
		}
		inst.SetTracer(trace.New(reg, "pin_", trace.Config{SampleRate: 0}))
		inst.RegisterMetrics(reg)
		for _, n := range []int{1, 699, 2, 1300, 17} {
			inst.RunSteps(n)
		}
		inst.Run()
		if trip := inst.GuardTrip(); trip != nil {
			t.Fatalf("%s: healthy run tripped: %v", c.name, trip)
		}
		if got := paramsHash(inst.Model()); got != want {
			t.Errorf("%s: instrumented, chunked run ends at %s, plain run at %s", c.name, got, want)
		}
	}
}
