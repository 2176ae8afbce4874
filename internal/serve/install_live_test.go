package serve_test

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"clapf/internal/dataset"
	"clapf/internal/feedback"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/retrieval"
	"clapf/internal/serve"
)

// stallingModel is a float64 parameter set whose first item read announces
// itself and then waits to be released: an index build caught in the act.
type stallingModel struct {
	*mf.Model
	once     sync.Once
	building chan struct{} // closed at the first item read
	release  chan struct{} // item reads wait for this to close
}

func (m *stallingModel) ItemVector(i int32, dst []float64) []float64 {
	m.once.Do(func() { close(m.building) })
	<-m.release
	return m.Model.ItemVector(i, dst)
}

// TestInstallBuildsIndexOutsideSinkLockLive is the lock-scope property
// with the real sink: while an Install of a changed item half is still
// building its index, a missing read's exclusion lookup (ExtraPositives)
// and a /feedback ack (Ingest) both complete — they wait on the
// Ingestor's mutex, which install must not hold through the build — and
// the event acknowledged meanwhile is in the state the install publishes.
func TestInstallBuildsIndexOutsideSinkLockLive(t *testing.T) {
	const users, items = 6, 400
	b := dataset.NewBuilder("live", users, items)
	for u := int32(0); u < users; u++ {
		for j := int32(0); j < 5; j++ {
			if err := b.Add(u, u+7*j); err != nil {
				t.Fatal(err)
			}
		}
	}
	train := b.Build()
	m := mf.MustNew(mf.Config{NumUsers: users, NumItems: items, Dim: 4, UseBias: true, InitStd: 0.1})
	m.InitGaussian(mathx.NewRNG(5), 0.1)
	srv, err := serve.New(m, train)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetRetrieval(retrieval.ModeIVF, retrieval.Config{}); err != nil {
		t.Fatal(err)
	}
	wal, _, err := feedback.OpenWAL(filepath.Join(t.TempDir(), "wal"), feedback.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	ing := feedback.NewIngestor(wal, train, feedback.Config{FoldInReg: srv.FoldInReg}, nil)
	ing.Bind(srv)
	if err := srv.EnableFeedback(ing); err != nil {
		t.Fatal(err)
	}

	moved := m.Clone()
	moved.ItemFactors(9)[1] += 0.5
	cand := &stallingModel{Model: moved, building: make(chan struct{}), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(cand.release) }) }
	defer release()
	installed := make(chan error, 1)
	go func() { installed <- srv.Install(cand, serve.InstallOpts{Folded: serve.KeepFoldedSeq}) }()
	<-cand.building

	const user, item = int32(2), int32(399)
	acked := make(chan error, 1)
	go func() {
		ing.ExtraPositives(user)
		_, _, err := ing.Ingest(context.Background(), user, item)
		acked <- err
	}()
	select {
	case err := <-acked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ExtraPositives and Ingest are stuck behind an index build: install holds the sink's lock through it")
	}
	select {
	case err := <-installed:
		t.Fatalf("Install returned (%v) while its index build was still stalled", err)
	default:
	}

	release()
	if err := <-installed; err != nil {
		t.Fatal(err)
	}
	if srv.Generation() != 1 {
		t.Fatalf("generation = %d after the install, want 1", srv.Generation())
	}
	if got := ing.ExtraPositives(user); !slices.Equal(got, []int32{item}) {
		t.Fatalf("extras of user %d = %v, want [%d]", user, got, item)
	}
	// The event's fold-in landed in the old generation's overlay; the
	// install's RebuildOverlay, which ran after it, re-solved it onto the
	// new base.
	if slices.Equal(srv.Params().UserVector(user, nil), srv.BaseParams().UserVector(user, nil)) {
		t.Error("the event acknowledged during the build is not in the installed overlay")
	}
}
