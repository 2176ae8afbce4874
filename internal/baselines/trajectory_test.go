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

	"clapf/internal/dataset"
	"clapf/internal/mf"
)

// pinTrajectories rewrites testdata/trajectories.json from this build;
// see the flag of the same name in internal/core. The committed file was
// recorded at ac980a1, before MPR and BPR moved onto core's step kernel
// and the Fit preambles onto its helpers — all but "BPR/bias=true", which
// was re-recorded after the move (see pinnedFitters).
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

// pinnedFitters are the MF baselines whose Fit the kernel refactor
// touched: MPR and BPR in their arithmetic, GBPR and CLiMF only in the
// shared model/record preamble (so their RNG split order is pinned too).
//
// "BPR/bias=true" is the one entry the move was allowed to change, by
// reassociating one sum: the old loop computed the risk as
// ((dᵢ+bᵢ) − dⱼ) − bⱼ, the kernel computes (dᵢ+bᵢ) − (dⱼ+bⱼ) — within
// 2.3e-16 of each other, and every write downstream is bit-equal whenever
// the two sums are (old hash c46ecfe018933da057fd34a50032f0b7; the golden
// BPR metrics did not move at 1e-6). Without a bias term the two are the
// same expression, so the four bias-free BPR entries are the old loop's
// bits.
func pinnedFitters(t *testing.T, pairs int) map[string]interface {
	Fitter
	Model() *mf.Model
} {
	t.Helper()
	out := map[string]interface {
		Fitter
		Model() *mf.Model
	}{}
	for _, bias := range []bool{true, false} {
		name := map[bool]string{true: "bias=true", false: "bias=false"}[bias]

		mc := DefaultMPRConfig(pairs)
		mc.Dim, mc.Steps, mc.Seed, mc.UseBias = 8, 6000, 77, bias
		m, err := NewMPR(mc)
		if err != nil {
			t.Fatal(err)
		}
		out["MPR/"+name] = m

		gc := DefaultGBPRConfig(pairs)
		gc.Dim, gc.Steps, gc.Seed, gc.UseBias = 8, 3000, 77, bias
		g, err := NewGBPR(gc)
		if err != nil {
			t.Fatal(err)
		}
		out["GBPR/"+name] = g

		for _, s := range []BPRSampler{BPRUniform, BPRDNS, BPRAoBPR, BPRABS} {
			if bias && s != BPRUniform {
				continue
			}
			bc := DefaultBPRConfig(pairs)
			bc.Dim, bc.Steps, bc.Seed, bc.UseBias = 8, 6000, 77, bias
			bc.Sampler, bc.DNSCandidates = s, 4
			b, err := NewBPR(bc)
			if err != nil {
				t.Fatal(err)
			}
			out[b.Name()+"/"+name] = b
		}
	}
	cc := DefaultCLiMFConfig()
	cc.Dim, cc.Epochs, cc.Seed = 8, 3, 77
	c, err := NewCLiMF(cc)
	if err != nil {
		t.Fatal(err)
	}
	out["CLiMF"] = c
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
	for name, f := range pinnedFitters(t, d.NumPairs()) {
		if err := f.Fit(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = paramsHash(f.Model())
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
