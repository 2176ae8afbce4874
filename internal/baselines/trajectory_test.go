package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"clapf/internal/core"
	"clapf/internal/dataset"
	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// pinTrajectories rewrites testdata/trajectories.json from this build;
// see the flag of the same name in internal/core. The committed file was
// recorded at ac980a1, before MPR and BPR moved onto core's step kernel
// and the Fit preambles onto its helpers — all but "BPR/bias=true" and
// "BPR-ABS/bias=false", each re-recorded once (see pinnedRuns).
var pinTrajectories = flag.Bool("pin", false, "rewrite testdata/trajectories.json from this build")

const trajectoryFile = "testdata/trajectories.json"

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

// pinnedRuns are the MF methods whose training the kernel refactor
// touched: MPR and BPR in their arithmetic, GBPR and CLiMF only in the
// shared model/record preamble (so their RNG split order is pinned too).
// MPR and BPR have since become objectives of core.Trainer; their pins
// are the bare loops' bits, which is the proof that each objective
// consumes the seed as its loop did.
//
// Two entries were allowed to move. "BPR/bias=true", when the loops moved
// onto the kernel, by reassociating one sum: the old loop computed the
// risk as ((dᵢ+bᵢ) − dⱼ) − bⱼ, the kernel computes (dᵢ+bᵢ) − (dⱼ+bⱼ) —
// within 2.3e-16 of each other, and every write downstream is bit-equal
// whenever the two sums are (old hash c46ecfe018933da057fd34a50032f0b7;
// the golden BPR metrics did not move at 1e-6). Without a bias term the
// two are the same expression, so the bias-free BPR entries are the old
// loop's bits. "BPR-ABS/bias=false", when BPR became an objective, by a
// bug fix: the loop let ABS screen each candidate against a positive of
// its own choosing and then trained the survivor against the record's i;
// the objective screens against the record's i (old hash
// a16ed77b7b5564314a0fbd3d7a1190d1; see
// sampling.TestABSScreensAgainstTheGivenPositive).
func pinnedRuns(t *testing.T, d *dataset.Dataset) map[string]func() (*mf.Model, error) {
	t.Helper()
	out := map[string]func() (*mf.Model, error){}
	trainer := func(o core.Objective, bias bool) func() (*mf.Model, error) {
		return func() (*mf.Model, error) {
			cfg := objectiveConfig(o, d.NumPairs())
			cfg.Dim, cfg.Steps, cfg.Seed, cfg.UseBias = 8, 6000, 77, bias
			tr, err := core.NewTrainer(cfg, d)
			if err != nil {
				return nil, err
			}
			tr.Run()
			return tr.Model(), nil
		}
	}
	fitter := func(f interface {
		Fitter
		Model() *mf.Model
	}, err error) func() (*mf.Model, error) {
		if err != nil {
			t.Fatal(err)
		}
		return func() (*mf.Model, error) {
			err := f.Fit(d)
			return f.Model(), err
		}
	}
	for _, bias := range []bool{true, false} {
		name := map[bool]string{true: "bias=true", false: "bias=false"}[bias]

		out["MPR/"+name] = trainer(core.MPR{Rho: 0.6}, bias)

		gc := DefaultGBPRConfig(d.NumPairs())
		gc.Dim, gc.Steps, gc.Seed, gc.UseBias = 8, 3000, 77, bias
		out["GBPR/"+name] = fitter(NewGBPR(gc))

		for s, bpr := range map[sampling.Negatives]string{
			sampling.UniformNegatives: "BPR", sampling.DNSNegatives: "BPR-DNS",
			sampling.AoBPRNegatives: "BPR-AoBPR", sampling.ABSNegatives: "BPR-ABS",
		} {
			if bias && s != sampling.UniformNegatives {
				continue
			}
			out[bpr+"/"+name] = trainer(core.BPR{Negatives: s, Candidates: 4}, bias)
		}
	}
	cc := DefaultCLiMFConfig()
	cc.Dim, cc.Epochs, cc.Seed = 8, 3, 77
	out["CLiMF"] = fitter(NewCLiMF(cc))
	return out
}

func TestTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Where the compiler fuses x*y+z into one rounding (arm64, ppc64le,
		// s390x, riscv64) both the old loops and the kernel land on other
		// bits than the amd64 build the pins were recorded on.
		t.Skipf("trajectories are pinned for amd64, this is %s", runtime.GOARCH)
	}
	_, train, _ := worldSplit(t)
	// A few single-positive users keep the sparse end of the record
	// builder on the pinned path.
	pairs := train.Interactions()
	for s := 0; s < 5; s++ {
		pairs = append(pairs, dataset.Interaction{User: int32(train.NumUsers() + s), Item: int32(11 * s)})
	}
	d, err := dataset.FromInteractions("pin", train.NumUsers()+5, train.NumItems(), pairs)
	if err != nil {
		t.Fatal(err)
	}

	got := map[string]string{}
	for name, run := range pinnedRuns(t, d) {
		m, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = paramsHash(m)
	}
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
