package serve

import (
	"sync"
	"sync/atomic"
	"testing"

	"clapf/internal/mf"
	"clapf/internal/retrieval"
)

// lockTrackingSink is overlaySink that knows whether it is locked, and how
// many item reads its candidates had served by the time RebuildOverlay
// last ran.
type lockTrackingSink struct {
	overlaySink
	locked         atomic.Bool
	reads          atomic.Int64
	readsAtRebuild int64
}

func (s *lockTrackingSink) Lock()   { s.overlaySink.Lock(); s.locked.Store(true) }
func (s *lockTrackingSink) Unlock() { s.locked.Store(false); s.overlaySink.Unlock() }

func (s *lockTrackingSink) RebuildOverlay(base mf.Params, folded uint64) (*mf.Overlay, error) {
	s.readsAtRebuild = s.reads.Load()
	return s.overlaySink.RebuildOverlay(base, folded)
}

// itemGuard is a float64 parameter set whose item half — all an index
// build or an Indexes comparison reads — may only be read while the sink
// is unlocked.
type itemGuard struct {
	*mf.Model
	t    *testing.T
	sink *lockTrackingSink
	once sync.Once
}

func (g *itemGuard) read(what string) {
	g.sink.reads.Add(1)
	if g.sink.locked.Load() {
		g.once.Do(func() {
			g.t.Errorf("%s called with the feedback sink locked: the index work runs inside install's critical section", what)
		})
	}
}

func (g *itemGuard) ItemVector(i int32, dst []float64) []float64 {
	g.read("ItemVector")
	return g.Model.ItemVector(i, dst)
}

func (g *itemGuard) Bias(i int32) float64 {
	g.read("Bias")
	return g.Model.Bias(i)
}

// TestInstallBuildsIndexOutsideSinkLock: install resolves the IVF index —
// a build for a changed item half, the Indexes comparison for an unchanged
// one — before it takes the feedback sink's lock, so neither ever holds up
// an ack or a missing read, and both are over by the time RebuildOverlay
// runs.
func TestInstallBuildsIndexOutsideSinkLock(t *testing.T) {
	s, _ := testServer(t)
	if err := s.SetRetrieval(retrieval.ModeIVF, retrieval.Config{NLists: 8}); err != nil {
		t.Fatal(err)
	}
	sink := &lockTrackingSink{}
	guard := func(m *mf.Model) *itemGuard { return &itemGuard{Model: m, t: t, sink: sink} }
	if err := s.EnableFeedback(sink); err != nil {
		t.Fatal(err)
	}
	before := s.live.Load().index

	moved := s.Model().Clone()
	moved.ItemFactors(5)[0] += 0.125
	if err := s.Install(guard(moved), InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	built := s.live.Load().index
	if built == before {
		t.Fatal("a changed item half kept the index")
	}
	if sink.readsAtRebuild == 0 {
		t.Error("RebuildOverlay ran before the index build had read an item")
	}
	afterBuild := sink.reads.Load()

	if err := s.Install(guard(moved.Clone()), InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}
	if s.live.Load().index != built {
		t.Error("an unchanged item half rebuilt the index")
	}
	if sink.readsAtRebuild <= afterBuild {
		t.Error("RebuildOverlay ran before the Indexes comparison had read an item")
	}
}
