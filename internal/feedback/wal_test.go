package feedback

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"clapf/internal/fault"
	"clapf/internal/obs"
)

func openTestWAL(t *testing.T, dir string, cfg WALConfig) (*WAL, RecoveryInfo) {
	t.Helper()
	w, info, err := OpenWAL(dir, cfg)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w, info
}

func collectEvents(t *testing.T, w *WAL) []Event {
	t.Helper()
	var evs []Event
	if err := w.Replay(func(ev Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return evs
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, info := openTestWAL(t, dir, WALConfig{})
	if info.Events != 0 || info.LastSeq != 0 {
		t.Fatalf("fresh log reports %+v", info)
	}
	now := time.Unix(1700000000, 42)
	for i := 0; i < 100; i++ {
		seq, err := w.Append(int32(i%7), int32(i), now)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d assigned seq %d, want %d", i, seq, i+1)
		}
	}
	evs := collectEvents(t, w)
	if len(evs) != 100 {
		t.Fatalf("replayed %d events, want 100", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.User != int32(i%7) || ev.Item != int32(i) || ev.UnixNano != now.UnixNano() {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: recovery must find everything and resume the sequence.
	w2, info2 := openTestWAL(t, dir, WALConfig{})
	if info2.Events != 100 || info2.LastSeq != 100 || info2.TruncatedBytes != 0 {
		t.Fatalf("recovery reports %+v", info2)
	}
	seq, err := w2.Append(1, 2, now)
	if err != nil || seq != 101 {
		t.Fatalf("Append after reopen: seq %d err %v, want 101", seq, err)
	}
}

// Appenders share fsyncs: whoever waits for an append syncs everything
// written so far, so 64 concurrent writers at the default config pay far
// fewer fsyncs than appends, and every seq still replays exactly once.
func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	h := obs.NewHistogram(obs.ExponentialBuckets(1e-5, 4, 10))
	w, _ := openTestWAL(t, t.TempDir(), WALConfig{FsyncSeconds: h})
	const writers, per = 64, 100
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per && errs[g] == nil; i++ {
				_, errs[g] = w.Append(int32(g), int32(i), time.Unix(0, int64(g)))
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	const n = writers * per
	if got := h.Count(); got >= n {
		t.Fatalf("%d fsyncs for %d concurrent appends: no fsync was shared", got, n)
	}
	evs := collectEvents(t, w)
	if len(evs) != n {
		t.Fatalf("replayed %d events, want %d", len(evs), n)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

// Rotation under concurrent appends: every pass of the sealing loop waits
// with the log lock released, so appenders must never pick the same next
// seq or rotate under one another. Two frames a segment make every other
// append a rotation.
func TestWALRotationConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{SegmentBytes: 88}
	w, _ := openTestWAL(t, dir, cfg)
	const writers, per = 32, 10
	const n = writers * per
	var mu sync.Mutex
	acked := make(map[uint64][2]int32, n)
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := w.Append(int32(g), int32(i), time.Unix(0, 0))
				if err != nil {
					errs[g] = err
					return
				}
				mu.Lock()
				acked[seq] = [2]int32{int32(g), int32(i)}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	requireAll := func(evs []Event, when string) {
		t.Helper()
		if len(evs) != n {
			t.Fatalf("%s: %d events, want %d", when, len(evs), n)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) || acked[ev.Seq] != [2]int32{ev.User, ev.Item} {
				t.Fatalf("%s: event %d = %+v, acked as %v", when, i, ev, acked[ev.Seq])
			}
		}
	}
	requireAll(collectEvents(t, w), "replay")
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2, info := openTestWAL(t, dir, cfg)
	if info.Events != n || info.LastSeq != n || info.TruncatedBytes != 0 || info.DroppedSegment != "" {
		t.Fatalf("recovery reports %+v, want %d events and no repair", info, n)
	}
	requireAll(collectEvents(t, w2), "reopen")
}

func TestWALRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: header(24) + 2 frames (32 each) = 88 bytes.
	w, _ := openTestWAL(t, dir, WALConfig{SegmentBytes: 88})
	for i := 0; i < 10; i++ {
		if _, err := w.Append(1, int32(i), time.Unix(0, 0)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if segs := w.Segments(); segs != 5 {
		t.Fatalf("Segments = %d, want 5", segs)
	}
	if evs := collectEvents(t, w); len(evs) != 10 {
		t.Fatalf("replayed %d events, want 10", len(evs))
	}

	// Prune below seq 5: segments [1,2] and [3,4] are removable.
	removed, err := w.PruneTo(5)
	if err != nil {
		t.Fatalf("PruneTo: %v", err)
	}
	if removed != 2 {
		t.Fatalf("PruneTo removed %d segments, want 2", removed)
	}
	evs := collectEvents(t, w)
	if len(evs) != 6 || evs[0].Seq != 5 {
		t.Fatalf("after prune: %d events, first seq %d; want 6 starting at 5", len(evs), evs[0].Seq)
	}

	// Reopen after pruning: the gap at the head is legitimate.
	w.Close()
	w2, info := openTestWAL(t, dir, WALConfig{SegmentBytes: 88})
	if info.Events != 6 || info.LastSeq != 10 {
		t.Fatalf("recovery after prune reports %+v", info)
	}
	if _, err := w2.Append(1, 99, time.Unix(0, 0)); err != nil {
		t.Fatalf("Append after prune+reopen: %v", err)
	}
}

func TestWALRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALConfig{})
	for i := 0; i < 5; i++ {
		if _, err := w.Append(2, int32(i), time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a crash mid-append: a partial frame at the tail.
	seg := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeFrame(nil, Event{Seq: 6, User: 2, Item: 5})
	if _, err := f.Write(frame[:len(frame)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, info := openTestWAL(t, dir, WALConfig{})
	if info.Events != 5 || info.LastSeq != 5 {
		t.Fatalf("recovery reports %+v, want 5 events", info)
	}
	if info.TruncatedBytes != int64(len(frame)-7) {
		t.Fatalf("TruncatedBytes = %d, want %d", info.TruncatedBytes, len(frame)-7)
	}
	// The log must keep working, and the torn record must not resurface.
	seq, err := w2.Append(2, 100, time.Unix(0, 0))
	if err != nil || seq != 6 {
		t.Fatalf("Append after recovery: seq %d err %v", seq, err)
	}
	evs := collectEvents(t, w2)
	if len(evs) != 6 || evs[5].Item != 100 {
		t.Fatalf("post-recovery replay: %+v", evs)
	}
}

func TestWALRecoveryBitFlipInTail(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALConfig{})
	for i := 0; i < 8; i++ {
		if _, err := w.Append(3, int32(i), time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Flip one byte inside the 7th record's payload: records 7-8 are cut.
	seg := filepath.Join(dir, segmentName(1))
	off := int64(headerSize + 6*(frameOverhead+payloadSize) + frameOverhead + 3)
	if err := fault.FlipByte(seg, off); err != nil {
		t.Fatal(err)
	}

	w2, info := openTestWAL(t, dir, WALConfig{})
	if info.Events != 6 || info.LastSeq != 6 {
		t.Fatalf("recovery reports %+v, want 6 events", info)
	}
	if info.TruncatedBytes != int64(2*(frameOverhead+payloadSize)) {
		t.Fatalf("TruncatedBytes = %d", info.TruncatedBytes)
	}
	if seq, err := w2.Append(3, 50, time.Unix(0, 0)); err != nil || seq != 7 {
		t.Fatalf("Append after bit-flip recovery: seq %d err %v", seq, err)
	}
}

func TestWALRecoveryRefusesSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALConfig{SegmentBytes: 88})
	for i := 0; i < 6; i++ {
		if _, err := w.Append(4, int32(i), time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Corrupt a SEALED (non-final) segment: that data was durable, so
	// recovery must refuse rather than silently drop acknowledged events.
	if err := fault.FlipByte(filepath.Join(dir, segmentName(1)), headerSize+frameOverhead+2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, WALConfig{SegmentBytes: 88}); err == nil {
		t.Fatal("OpenWAL accepted corruption in a sealed segment")
	}
}

func TestWALRecoveryDropsTornHeaderSegment(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALConfig{SegmentBytes: 88})
	for i := 0; i < 4; i++ {
		if _, err := w.Append(5, int32(i), time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a crash during rotation: the next segment exists but its
	// header never became durable.
	torn := filepath.Join(dir, segmentName(5))
	if err := os.WriteFile(torn, []byte("CLAPF"), 0o644); err != nil {
		t.Fatal(err)
	}

	w2, info := openTestWAL(t, dir, WALConfig{SegmentBytes: 88})
	if info.Events != 4 || info.LastSeq != 4 {
		t.Fatalf("recovery reports %+v", info)
	}
	if info.DroppedSegment != segmentName(5) {
		t.Fatalf("DroppedSegment = %q", info.DroppedSegment)
	}
	if seq, err := w2.Append(5, 9, time.Unix(0, 0)); err != nil || seq != 5 {
		t.Fatalf("Append after dropped segment: seq %d err %v", seq, err)
	}
}
