package feedback

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clapf/internal/datagen"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/retrieval"
	"clapf/internal/serve"
	"clapf/internal/store"
)

// The chaos suite proves the crash-safety contract end to end:
//
//   - an acknowledged event survives any crash (torn tails truncate only
//     the unacknowledged suffix);
//   - a crash at any point in the promotion state machine — including
//     between the watermarked export and the hot swap — recovers to
//     factors byte-identical to an uninterrupted run;
//   - a failed promotion leaves the old generation serving.
//
// Gated in check.sh under -race.

// chaosFixture builds a deterministic world and a trained-enough model.
func chaosFixture(t testing.TB) (*mf.Model, *dataset.Dataset) {
	t.Helper()
	w, err := datagen.Generate(datagen.Profile{
		Name: "chaos", Users: 40, Items: 70, Pairs: 900,
		ZipfExp: 0.6, Dim: 4, Affinity: 5,
	}, mathx.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	m := mf.MustNew(mf.Config{
		NumUsers: w.Data.NumUsers(), NumItems: w.Data.NumItems(), Dim: 4, UseBias: true,
	})
	m.InitGaussian(mathx.NewRNG(12), 0.1)
	return m, w.Data
}

// chaosBases are the two things a model file can ask for: float64 factors
// parsed onto the heap and float32 factors served from a mapping. The
// promotion scenarios run over both.
type chaosBase struct {
	name      string
	save      func(path string, m *mf.Model) error
	precision string
	mapped    bool
}

var chaosBases = []chaosBase{
	{"f64", store.SaveFile, "f64", false},
	{"f32", func(path string, m *mf.Model) error {
		return store.SaveF32File(path, mf.QuantizeF32(m), nil)
	}, "f32", true},
}

// pipeline is one serve+ingest stack, wired exactly as cmd/clapf-serve
// wires it: open the model file, recover WAL, seed watermark from the
// file, replay, bind, enable.
type pipeline struct {
	srv *serve.Server
	ing *Ingestor
	wal *WAL
}

// boot starts (or restarts, after a crash) the pipeline from the model
// file and WAL dir. Leaving a previous pipeline un-Closed is the crash.
func boot(t testing.TB, modelPath, walDir string, train *dataset.Dataset) *pipeline {
	t.Helper()
	model, meta, err := store.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewFromParams(model, train)
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := OpenWAL(walDir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ing := NewIngestor(wal, train, Config{FoldInReg: srv.FoldInReg}, nil)
	ing.SetFolded(meta.FeedbackSeq)
	if _, err := ing.Replay(); err != nil {
		t.Fatal(err)
	}
	ing.Bind(srv)
	if err := srv.EnableFeedback(ing); err != nil {
		t.Fatal(err)
	}
	return &pipeline{srv: srv, ing: ing, wal: wal}
}

// chaosEvents is the deterministic event schedule shared by the
// interrupted and uninterrupted runs.
func chaosEvents(train *dataset.Dataset, n int) [][2]int32 {
	rng := mathx.NewRNG(99)
	out := make([][2]int32, n)
	for i := range out {
		out[i] = [2]int32{
			int32(rng.Intn(train.NumUsers())),
			int32(rng.Intn(train.NumItems())),
		}
	}
	return out
}

func ingestAll(t testing.TB, p *pipeline, events [][2]int32) {
	t.Helper()
	for i, ev := range events {
		if _, _, err := p.ing.Ingest(context.Background(), ev[0], ev[1]); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
}

// servingFactors snapshots every user's effective serving vector (base
// or overlay) as raw bits, for byte-identity comparison across runs.
func servingFactors(srv *serve.Server) [][]uint64 {
	params := srv.Params()
	out := make([][]uint64, params.NumUsers())
	for u := range out {
		vec := params.UserVector(int32(u), nil)
		bits := make([]uint64, len(vec))
		for j, v := range vec {
			bits[j] = math.Float64bits(v)
		}
		out[u] = bits
	}
	return out
}

func requireSameFactors(t testing.TB, a, b [][]uint64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("user counts differ: %d vs %d", len(a), len(b))
	}
	for u := range a {
		for j := range a[u] {
			if a[u][j] != b[u][j] {
				t.Fatalf("user %d factor %d differs: %016x vs %016x",
					u, j, a[u][j], b[u][j])
			}
		}
	}
}

// recommendBodies returns the raw /recommend response of each user.
func recommendBodies(t testing.TB, srv *serve.Server, users []int32) []string {
	t.Helper()
	h := srv.Handler()
	out := make([]string, len(users))
	for i, u := range users {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/recommend?user=%d&k=10", u), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("user %d: status %d: %s", u, rec.Code, rec.Body)
		}
		out[i] = rec.Body.String()
	}
	return out
}

// requireBacking checks the live base is held the way its file asked.
func requireBacking(t testing.TB, srv *serve.Server, precision string, mapped bool) {
	t.Helper()
	if p, m := srv.Backing(); p != precision || m != mapped {
		t.Fatalf("live base is %s mapped=%v, want %s mapped=%v", p, m, precision, mapped)
	}
}

// Crash with a torn tail: every acknowledged event survives recovery;
// only the torn (never-acknowledged) suffix is dropped.
func TestFeedbackChaosTornTailLosesNoAckedEvents(t *testing.T) {
	model, train := chaosFixture(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.clapf")
	if err := store.SaveFile(modelPath, model); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")

	p := boot(t, modelPath, walDir, train)
	events := chaosEvents(train, 25)
	acked := make(map[uint64][2]int32)
	for _, ev := range events {
		seq, _, err := p.ing.Ingest(context.Background(), ev[0], ev[1])
		if err != nil {
			t.Fatal(err)
		}
		acked[seq] = ev
	}
	// Crash mid-append: the process dies while writing event 26 — a
	// partial frame lands on disk and no ack is ever sent. The old
	// pipeline is abandoned, not closed.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x18, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2 := boot(t, modelPath, walDir, train)
	defer p2.wal.Close()
	got := make(map[uint64][2]int32)
	if err := p2.wal.Replay(func(ev Event) error {
		got[ev.Seq] = [2]int32{ev.User, ev.Item}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for seq, ev := range acked {
		g, ok := got[seq]
		if !ok {
			t.Fatalf("acked event seq %d lost after crash recovery", seq)
		}
		if g != ev {
			t.Fatalf("acked event seq %d corrupted: %v vs %v", seq, g, ev)
		}
	}
	// The log continues from the last acked sequence number.
	seq, _, err := p2.ing.Ingest(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(events) + 1); seq != want {
		t.Fatalf("post-recovery seq = %d, want %d", seq, want)
	}
}

// Group commit under concurrency, then crash: durability acks are only
// sent after the covering fsync, so every acked event must be in the
// recovered log even when 8 writers share fsyncs.
func TestFeedbackChaosGroupCommitCrash(t *testing.T) {
	model, train := chaosFixture(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.clapf")
	if err := store.SaveFile(modelPath, model); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	srvModel, _, err := store.LoadFileWithMeta(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(srvModel, train)
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := OpenWAL(walDir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ing := NewIngestor(wal, train, Config{}, nil)
	ing.Bind(srv)
	if err := srv.EnableFeedback(ing); err != nil {
		t.Fatal(err)
	}

	const workers, per = 8, 10
	type ack struct {
		seq uint64
		ev  [2]int32
	}
	acks := make(chan ack, workers*per)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				u := int32((w*per + i) % train.NumUsers())
				it := int32((w + i*3) % train.NumItems())
				seq, _, err := ing.Ingest(context.Background(), u, it)
				if err != nil {
					errs <- err
					return
				}
				acks <- ack{seq: seq, ev: [2]int32{u, it}}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(acks)
	// Crash: abandon without Close or final sync.
	p2 := boot(t, modelPath, walDir, train)
	defer p2.wal.Close()
	got := make(map[uint64][2]int32)
	if err := p2.wal.Replay(func(ev Event) error {
		got[ev.Seq] = [2]int32{ev.User, ev.Item}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for a := range acks {
		if g, ok := got[a.seq]; !ok || g != a.ev {
			t.Fatalf("acked seq %d missing or wrong after crash: %v ok=%v", a.seq, g, ok)
		}
	}
}

// A promotion's watermark covers only events it baked. Event A takes
// seq 1 and is parked right after its append; event B (seq 2) and a
// promotion then get their chance before A is recorded. Had B been
// recorded and a promotion exported FeedbackSeq = 2 without A, a restart
// would count A's user as folded and serve the export's row, which lacks
// A. Appending under the ingest lock makes both wait for A instead.
func TestFeedbackChaosWatermarkCoversOnlyRecordedEvents(t *testing.T) {
	model, train := chaosFixture(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.clapf")
	if err := store.SaveFile(modelPath, model); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	p := boot(t, modelPath, walDir, train)
	// Two users, each with an item outside their training history, so
	// both events are applied.
	var evs [][2]int32
	for u := int32(0); len(evs) < 2; u++ {
		for i := int32(0); i < int32(train.NumItems()); i++ {
			if !train.IsPositive(u, i) {
				evs = append(evs, [2]int32{u, i})
				break
			}
		}
	}
	prom, err := NewPromoter(p.ing, p.srv, PromoteConfig{ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	p.ing.afterAppend = func(seq uint64) {
		if seq == 1 {
			close(parked)
			<-release
		}
	}
	ingest := func(ev [2]int32) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := p.ing.Ingest(context.Background(), ev[0], ev[1])
			done <- err
		}()
		return done
	}
	aDone := ingest(evs[0])
	<-parked
	// B, then the promotion, get about 100 ms each to run past A.
	bDone := ingest(evs[1])
	time.Sleep(100 * time.Millisecond)
	promDone := make(chan error, 1)
	go func() {
		outcome, err := prom.PromoteOnce()
		if err == nil && outcome != PromoteOK {
			err = fmt.Errorf("promotion outcome %q", outcome)
		}
		promDone <- err
	}()
	time.Sleep(100 * time.Millisecond)
	close(release)
	for _, done := range []<-chan error{aDone, bDone, promDone} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	live := servingFactors(p.srv)
	if err := p.wal.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := boot(t, modelPath, walDir, train)
	defer p2.wal.Close()
	requireSameFactors(t, live, servingFactors(p2.srv))
}

// Crash the instant the watermarked export lands on disk — the promoted
// in-memory generation dies with the process — then recover and finish
// the schedule: the final serving factors are byte-identical to a run
// that never crashed, and so are the recommendations.
func TestFeedbackChaosCrashMidPromotionReplayByteIdentical(t *testing.T) {
	for _, base := range chaosBases {
		t.Run(base.name, func(t *testing.T) { crashMidPromotion(t, base) })
	}
}

func crashMidPromotion(t *testing.T, base chaosBase) {
	model, train := chaosFixture(t)
	events := chaosEvents(train, 30)

	// Uninterrupted reference run: all 30 events, no promotion, no crash.
	refDir := t.TempDir()
	refModel := filepath.Join(refDir, "m.clapf")
	if err := base.save(refModel, model); err != nil {
		t.Fatal(err)
	}
	ref := boot(t, refModel, filepath.Join(refDir, "wal"), train)
	defer ref.wal.Close()
	ingestAll(t, ref, events)
	want := servingFactors(ref.srv)

	// Interrupted run: promote after 12 events, export (but do not swap)
	// after 20 — the simulated crash point — then restart and finish.
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.clapf")
	if err := base.save(modelPath, model); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	p := boot(t, modelPath, walDir, train)
	ingestAll(t, p, events[:12])
	prom, err := NewPromoter(p.ing, p.srv, PromoteConfig{ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	// A promotion changes where a touched user's row lives — overlay
	// before, user matrix after — and nothing a client can see: the
	// overlaid row was already at the base's precision.
	var touched []int32
	for _, ev := range events[:12] {
		touched = append(touched, ev[0])
	}
	requireBacking(t, p.srv, base.precision, base.mapped)
	beforeBodies := recommendBodies(t, p.srv, touched)
	if outcome, err := prom.PromoteOnce(); err != nil || outcome != PromoteOK {
		t.Fatalf("promotion = %q, %v", outcome, err)
	}
	if p.srv.Generation() != 1 {
		t.Fatalf("generation = %d after promotion, want 1", p.srv.Generation())
	}
	for i, after := range recommendBodies(t, p.srv, touched) {
		if after != beforeBodies[i] {
			t.Fatalf("user %d top-K changed across the promotion:\n%s\n%s", touched[i], beforeBodies[i], after)
		}
	}
	// The promoted generation is held the way the base was, and it is the
	// published file: same representation, the promotion's watermark.
	requireBacking(t, p.srv, base.precision, base.mapped)
	if _, meta, err := store.Open(modelPath); err != nil || meta.FeedbackSeq != 12 {
		t.Fatalf("published export: watermark %+v, err %v; want 12", meta, err)
	}
	ingestAll(t, p, events[12:20])
	// The promoter's fold-and-export, published to the model path with
	// no install — the on-disk state right after publish — then the
	// process dies before anything else happens.
	seq, users := p.ing.snapshot()
	folded := mf.NewOverlay(p.srv.BaseParams())
	for u, merged := range users {
		if err := folded.FoldIn(u, merged, p.ing.cfg.FoldInReg); err != nil {
			t.Fatal(err)
		}
	}
	export, err := folded.Bake()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Export(modelPath+".promote", export, &store.Meta{FeedbackSeq: seq}); err != nil {
		t.Fatal(err)
	}
	if err := store.Publish(modelPath+".promote", modelPath); err != nil {
		t.Fatal(err)
	}
	// Crash (abandon) and restart from the exported file + WAL.
	p2 := boot(t, modelPath, walDir, train)
	defer p2.wal.Close()
	if got := p2.ing.Folded(); got != seq {
		t.Fatalf("recovered watermark = %d, want %d", got, seq)
	}
	requireBacking(t, p2.srv, base.precision, base.mapped)
	ingestAll(t, p2, events[20:])
	requireSameFactors(t, want, servingFactors(p2.srv))

	// Recommendations agree too: the exclusion history (train + every
	// replayed event) survived the crash alongside the factors.
	probe := []int32{0, 1, 2, 3, 4}
	gotBodies := recommendBodies(t, p2.srv, probe)
	for i, want := range recommendBodies(t, ref.srv, probe) {
		if gotBodies[i] != want {
			t.Fatalf("user %d top-K diverged after crash recovery:\n%s\n%s", probe[i], want, gotBodies[i])
		}
	}
}

// Rotation crash, then prune, then two restarts: a crash mid-rotation
// leaves a durable-header, zero-frame active segment, and a promotion
// with Prune enabled can then remove every predecessor. The empty
// segment's header must still pin the sequence chain — its firstSeq
// promises everything below it was assigned. Before that, recovery
// derived the last sequence only from decoded frames, restarted the log
// at seq 1 inside a segment claiming firstSeq 6, and the NEXT recovery
// silently discarded the acknowledged, fsync'd appends as a torn tail.
func TestFeedbackChaosRotateCrashPruneRestartKeepsSequenceChain(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(0); i < 5; i++ {
		if _, err := w.Append(i, i, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-rotation: rotateLocked is exactly the pre-crash suffix —
	// the sealed predecessor and the new segment's header are durable,
	// but no frame ever lands in the new segment.
	w.mu.Lock()
	err = w.rotateLocked(6)
	w.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Promotion with Prune enabled: every record of the sealed segment
	// is at or below the watermark, so it is removed, leaving only the
	// empty active segment. The process then dies (w is abandoned).
	if removed, err := w.PruneTo(5); err != nil || removed != 1 {
		t.Fatalf("PruneTo = %d, %v; want 1 segment removed", removed, err)
	}

	w2, info, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 5 {
		t.Fatalf("recovered LastSeq = %d, want 5 (empty active segment header pins the chain)", info.LastSeq)
	}
	seq, err := w2.Append(9, 9, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("post-recovery append got seq %d, want 6", seq)
	}
	// Crash again (abandon without Close): the acked append was fsync'd
	// and must survive the second recovery intact.
	w3, info3, err := OpenWAL(dir, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if info3.LastSeq != 6 || info3.TruncatedBytes != 0 {
		t.Fatalf("second recovery: LastSeq = %d, truncated = %d; acked append lost",
			info3.LastSeq, info3.TruncatedBytes)
	}
	var got []Event
	if err := w3.Replay(func(ev Event) error { got = append(got, ev); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seq != 6 || got[0].User != 9 || got[0].Item != 9 {
		t.Fatalf("replay after second crash = %+v, want the one acked event at seq 6", got)
	}
}

// An operator deploy+reload racing the promotion's export-to-swap window
// must win cleanly: the promotion comes back fenced, and the freshly
// deployed model file is never overwritten by the stale export (which
// only ever existed as a discarded temp file).
func TestFeedbackChaosRacingReloadNotClobberedByPromotion(t *testing.T) {
	for _, base := range chaosBases {
		t.Run(base.name, func(t *testing.T) { racingReload(t, base) })
	}
}

func racingReload(t *testing.T, base chaosBase) {
	model, train := chaosFixture(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.clapf")
	if err := base.save(modelPath, model); err != nil {
		t.Fatal(err)
	}
	p := boot(t, modelPath, filepath.Join(dir, "wal"), train)
	defer p.wal.Close()
	ingestAll(t, p, chaosEvents(train, 10))

	prom, err := NewPromoter(p.ing, p.srv, PromoteConfig{ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	operator := model.Clone()
	operator.InitGaussian(mathx.NewRNG(77), 0.1)
	var deployed []byte
	prom.beforeSwap = func() {
		// The operator deploys a new trained model and reloads — after
		// the promoter computed its export, before the fenced swap.
		if err := base.save(modelPath, operator); err != nil {
			t.Fatal(err)
		}
		if err := p.srv.ReloadFromFile(modelPath); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(modelPath)
		if err != nil {
			t.Fatal(err)
		}
		deployed = b
	}
	outcome, perr := prom.PromoteOnce()
	if outcome != PromoteFenced || perr != nil {
		t.Fatalf("promotion = %q, %v; want fenced", outcome, perr)
	}
	after, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(deployed, after) {
		t.Fatal("fenced promotion overwrote the freshly deployed model file")
	}
	if _, err := os.Stat(modelPath + ".promote"); !os.IsNotExist(err) {
		t.Fatalf("fenced promotion left its temp export behind: %v", err)
	}
	// The operator's generation — not the discarded export's mapping — is
	// what keeps serving, held the way its file asked.
	requireBacking(t, p.srv, base.precision, base.mapped)
	recommendBodies(t, p.srv, []int32{0, 1, 2})
}

// A promotion that cannot export (or loses the generation fence) leaves
// the previous generation serving, untouched.
func TestFeedbackChaosFailedPromotionKeepsOldGeneration(t *testing.T) {
	for _, base := range chaosBases {
		t.Run(base.name, func(t *testing.T) { failedPromotion(t, base) })
	}
}

func failedPromotion(t *testing.T, base chaosBase) {
	model, train := chaosFixture(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.clapf")
	if err := base.save(modelPath, model); err != nil {
		t.Fatal(err)
	}
	p := boot(t, modelPath, filepath.Join(dir, "wal"), train)
	defer p.wal.Close()
	ingestAll(t, p, chaosEvents(train, 10))
	before := servingFactors(p.srv)
	gen := p.srv.Generation()

	// Export target unwritable (parent directory does not exist): the
	// error outcome must not swap.
	prom, err := NewPromoter(p.ing, p.srv, PromoteConfig{ModelPath: filepath.Join(dir, "missing", "m.clapf")})
	if err != nil {
		t.Fatal(err)
	}
	outcome, perr := prom.PromoteOnce()
	if outcome != PromoteError || perr == nil {
		t.Fatalf("promotion = %q, %v; want error", outcome, perr)
	}
	if p.srv.Generation() != gen {
		t.Fatalf("failed promotion bumped generation to %d", p.srv.Generation())
	}
	requireSameFactors(t, before, servingFactors(p.srv))

	// A stale generation fence refuses the swap the same way.
	stale := gen + 100
	if err := p.srv.Install(p.srv.BaseParams(), serve.InstallOpts{Folded: 5, ExpectGen: &stale}); err != serve.ErrGenerationFenced {
		t.Fatalf("stale fence: err = %v, want ErrGenerationFenced", err)
	}
	if p.srv.Generation() != gen {
		t.Fatalf("fenced swap bumped generation to %d", p.srv.Generation())
	}
	requireSameFactors(t, before, servingFactors(p.srv))
	requireBacking(t, p.srv, base.precision, base.mapped)

	// And the watermark never advanced, so the next healthy promotion
	// still covers every event.
	if p.ing.Folded() != 0 {
		t.Fatalf("failed promotion advanced watermark to %d", p.ing.Folded())
	}
	stats := p.ing.Stats()
	if stats.Promotions[PromoteError] != 1 {
		t.Fatalf("promotions = %v, want one error outcome", stats.Promotions)
	}
}

// The watermark travels with the file on every path: a model file
// carrying Meta.FeedbackSeq = S leaves the ingestor folded at S — on boot
// and on a hot reload, whichever width the file holds — and the overlay
// holds only users with events beyond S. The mapped float32 path used to drop
// the file's metadata on boot and reload with "keep the current
// watermark".
func TestFeedbackChaosWatermarkTravelsWithFile(t *testing.T) {
	for _, base := range chaosBases {
		t.Run(base.name, func(t *testing.T) {
			model, train := chaosFixture(t)
			dir := t.TempDir()
			modelPath := filepath.Join(dir, "m.clapf")
			if err := base.save(modelPath, model); err != nil {
				t.Fatal(err)
			}
			walDir := filepath.Join(dir, "wal")
			events := chaosEvents(train, 20)
			const s = 12
			beyond := make(map[int32]bool)
			for _, ev := range events[s:] {
				beyond[ev[0]] = true
			}
			requireWatermark := func(p *pipeline, when string) {
				t.Helper()
				if got := p.ing.Folded(); got != s {
					t.Fatalf("%s: folded = %d, want the file's watermark %d", when, got, s)
				}
				ov := p.srv.Params().(*mf.Overlay)
				if ov.Len() != len(beyond) {
					t.Fatalf("%s: overlay holds %d users, want the %d with events beyond %d", when, ov.Len(), len(beyond), s)
				}
				for u := range beyond {
					if ov.Row(u) == nil {
						t.Fatalf("%s: user %d has an event beyond %d but no overlay row", when, u, s)
					}
				}
				requireBacking(t, p.srv, base.precision, base.mapped)
			}

			// Hot reload: the log is ahead of a file that folded nothing;
			// a file that folded the first s events is deployed over it.
			p := boot(t, modelPath, walDir, train)
			ingestAll(t, p, events)
			if p.ing.Folded() != 0 {
				t.Fatalf("fresh file: folded = %d, want 0", p.ing.Folded())
			}
			if err := store.Export(modelPath+".next", p.srv.BaseParams(), &store.Meta{FeedbackSeq: s}); err != nil {
				t.Fatal(err)
			}
			if err := store.Publish(modelPath+".next", modelPath); err != nil {
				t.Fatal(err)
			}
			if err := p.srv.ReloadFromFile(modelPath); err != nil {
				t.Fatal(err)
			}
			requireWatermark(p, "reload")

			// Boot: crash, restart from the same file and log.
			p2 := boot(t, modelPath, walDir, train)
			defer p2.wal.Close()
			requireWatermark(p2, "boot")
		})
	}
}

// indexSeries reads the server's two index-install series: how many IVF
// indexes it has built and how many installs carried the live one over.
func indexSeries(t testing.TB, srv *serve.Server) (built, reused float64) {
	t.Helper()
	var buf strings.Builder
	if err := srv.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		fmt.Sscanf(line, "clapf_index_build_seconds_count %g", &built)
		fmt.Sscanf(line, "clapf_index_reused_total %g", &reused)
	}
	return built, reused
}

// A promotion rewrites user rows only, so on an IVF server it must carry
// the live index over — no build, counted as a reuse — and still answer
// every user exactly as an index built from scratch over the promoted
// file does.
func TestFeedbackChaosPromotionKeepsIndex(t *testing.T) {
	for _, base := range chaosBases {
		t.Run(base.name, func(t *testing.T) { promotionKeepsIndex(t, base) })
	}
}

func promotionKeepsIndex(t *testing.T, base chaosBase) {
	model, train := chaosFixture(t)
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.clapf")
	if err := base.save(modelPath, model); err != nil {
		t.Fatal(err)
	}
	p := boot(t, modelPath, filepath.Join(dir, "wal"), train)
	defer p.wal.Close()
	cfg := retrieval.Config{NLists: 8, NProbe: 3}
	if err := p.srv.SetRetrieval(retrieval.ModeIVF, cfg); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, p, chaosEvents(train, 30))
	prom, err := NewPromoter(p.ing, p.srv, PromoteConfig{ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	builtBefore, reusedBefore := indexSeries(t, p.srv)
	if builtBefore != 1 {
		t.Fatalf("%v index builds before the promotion, want SetRetrieval's one", builtBefore)
	}
	if outcome, err := prom.PromoteOnce(); err != nil || outcome != PromoteOK {
		t.Fatalf("promotion = %q, %v", outcome, err)
	}
	built, reused := indexSeries(t, p.srv)
	if built != builtBefore || reused != reusedBefore+1 {
		t.Fatalf("the promotion built %v indexes and reused %v, want 0 and 1", built-builtBefore, reused-reusedBefore)
	}

	promoted, _, err := store.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := retrieval.BuildIVF(promoted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	users := make([]int32, train.NumUsers())
	for u := range users {
		users[u] = int32(u)
	}
	for i, body := range recommendBodies(t, p.srv, users) {
		u := users[i]
		var got serve.RecommendResponse
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		exclude := dataset.MergeSorted(train.Positives(u), p.ing.ExtraPositives(u))
		want, _ := fresh.Search(promoted.UserVector(u, nil), 10, 0, exclude)
		if len(got.Items) != len(want) {
			t.Fatalf("user %d: %d items through the carried index, %d through a fresh build", u, len(got.Items), len(want))
		}
		for r, e := range want {
			if got.Items[r].Item != e.Item || math.Float64bits(got.Items[r].Score) != math.Float64bits(e.Score) {
				t.Fatalf("user %d rank %d: carried index answers %+v, a fresh build %+v", u, r, got.Items[r], e)
			}
		}
	}
}
