// Package feedback implements the crash-safe streaming-ingest pipeline:
// a segmented append-only write-ahead log for feedback events, an
// ingestor that folds acknowledged events into bounded online
// user-factor updates, and a promoter that periodically bakes the
// accumulated log into a re-exported model promoted through the serving
// stack's atomic hot-reload path.
//
// The durability contract is the package's headline property: an event is
// acknowledged only after its WAL frame is fsync'd, so a crash at any
// point loses only unacknowledged events. Recovery truncates a torn tail
// in the final segment (bytes a crash can legitimately leave behind) and
// refuses corruption anywhere the log was already durable.
package feedback

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clapf/internal/obs"
	"clapf/internal/store"
)

// Event is one feedback observation: user u interacted with item i. Seq
// is the WAL-assigned sequence number (strictly increasing by 1 within a
// log); UnixNano records arrival time for operational forensics only —
// no recovery decision depends on it.
type Event struct {
	Seq      uint64
	User     int32
	Item     int32
	UnixNano int64
}

// Segment file layout:
//
//	header:  magic "CLAPFWAL" | version u32 | firstSeq u64 | crc32 u32
//	frames:  repeat { payloadLen u32 | crc32(payload) u32 | payload }
//	payload: seq u64 | user i32 | item i32 | unixNano i64   (24 bytes)
//
// All integers little-endian. The frame CRC covers only the payload; a
// corrupted length either lands on a CRC mismatch (garbage payload) or is
// rejected outright (!= payloadSize), so both fields are effectively
// covered. Segment files are named wal-<firstSeq, 20 decimal digits>.seg
// so a directory listing sorts them into log order.
const (
	walMagic      = "CLAPFWAL"
	walVersion    = 1
	headerSize    = 8 + 4 + 8 + 4
	frameOverhead = 4 + 4
	payloadSize   = 8 + 4 + 4 + 8
)

// WALConfig parameterizes a log. The zero value of every field selects
// the default.
type WALConfig struct {
	// SegmentBytes is the rotation threshold: a segment that reaches this
	// size is sealed and a new one started. Default 64 MiB.
	SegmentBytes int64
	// Ignored: the log group-commits by itself; the frozen benchmark/ sets these.
	SyncEvery    int
	SyncInterval time.Duration
	// FsyncSeconds, when set, observes the duration of every fsync —
	// wired to clapf_feedback_fsync_seconds.
	FsyncSeconds *obs.Histogram
	// Logger receives recovery and rotation diagnostics; nil discards.
	Logger *slog.Logger
}

func (c WALConfig) withDefaults() WALConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.SegmentBytes < headerSize+frameOverhead+payloadSize {
		c.SegmentBytes = headerSize + frameOverhead + payloadSize
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// RecoveryInfo reports what OpenWAL found and repaired.
type RecoveryInfo struct {
	// Events is the number of valid records in the log.
	Events uint64
	// LastSeq is the highest durable sequence number (0 when empty).
	LastSeq uint64
	// Segments is the number of live segment files.
	Segments int
	// TruncatedBytes is how many torn-tail bytes were cut from the final
	// segment; 0 means the log closed cleanly.
	TruncatedBytes int64
	// DroppedSegment names a final segment discarded whole because its
	// header never became durable; "" otherwise.
	DroppedSegment string
}

// WAL is a segmented append-only log. Begin assigns sequence numbers and
// writes frames under an internal lock; an append is durable — and its
// Pending.Wait returns — only after a covering fsync, which the first
// waiter to find none running performs for every frame written so far.
type WAL struct {
	dir string
	cfg WALConfig

	mu       sync.Mutex
	synced   sync.Cond // on mu; broadcast whenever an fsync finishes
	f        *os.File
	size     int64 // bytes written to the active segment
	segFirst uint64
	seq      uint64 // last assigned sequence number
	durable  uint64 // last fsync-covered sequence number
	syncing  bool   // an fsync of f is running with mu released
	err      error  // sticky: a failed fsync poisons the log
	closed   bool
}

// OpenWAL opens (creating if needed) the log in dir, runs recovery, and
// positions the log for appending. Recovery scans every segment in order,
// verifies frame CRCs and sequence continuity, truncates the final
// segment at the first invalid frame (a torn tail), and refuses — with an
// error — corruption in any sealed segment, which was durable and can
// only mean real data damage.
func OpenWAL(dir string, cfg WALConfig) (*WAL, RecoveryInfo, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("feedback: %w", err)
	}
	w := &WAL{dir: dir, cfg: cfg}
	w.synced.L = &w.mu
	info, err := w.recover()
	if err != nil {
		return nil, info, err
	}
	w.seq = info.LastSeq
	w.durable = info.LastSeq
	return w, info, nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%020d.seg", firstSeq)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segmentFiles lists the live segments sorted by first sequence number.
func (w *WAL) segmentFiles() ([]string, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	var segs []string
	for _, e := range entries {
		if _, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs) // zero-padded names sort numerically
	return segs, nil
}

func encodeHeader(firstSeq uint64) []byte {
	buf := make([]byte, headerSize)
	copy(buf, walMagic)
	binary.LittleEndian.PutUint32(buf[8:], walVersion)
	binary.LittleEndian.PutUint64(buf[12:], firstSeq)
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[:20]))
	return buf
}

func decodeHeader(buf []byte) (firstSeq uint64, err error) {
	if len(buf) < headerSize {
		return 0, fmt.Errorf("feedback: segment header truncated (%d bytes)", len(buf))
	}
	if string(buf[:8]) != walMagic {
		return 0, fmt.Errorf("feedback: bad segment magic")
	}
	if got, want := crc32.ChecksumIEEE(buf[:20]), binary.LittleEndian.Uint32(buf[20:]); got != want {
		return 0, fmt.Errorf("feedback: segment header CRC mismatch")
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != walVersion {
		return 0, fmt.Errorf("feedback: segment version %d, want %d", v, walVersion)
	}
	return binary.LittleEndian.Uint64(buf[12:]), nil
}

func encodeFrame(buf []byte, ev Event) []byte {
	var payload [payloadSize]byte
	binary.LittleEndian.PutUint64(payload[0:], ev.Seq)
	binary.LittleEndian.PutUint32(payload[8:], uint32(ev.User))
	binary.LittleEndian.PutUint32(payload[12:], uint32(ev.Item))
	binary.LittleEndian.PutUint64(payload[16:], uint64(ev.UnixNano))
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:], payloadSize)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload[:]))
	buf = append(buf, hdr[:]...)
	return append(buf, payload[:]...)
}

// decodeFrames scans a segment body (everything after the header) and
// returns the events of every valid frame plus the number of bytes
// consumed. Scanning stops — without error — at the first frame that is
// truncated, oversized, or fails its CRC: the caller decides whether the
// remainder is a legitimate torn tail or refusable corruption. This is
// the function FuzzReplay drives.
func decodeFrames(body []byte) (events []Event, consumed int) {
	off := 0
	for {
		if len(body)-off < frameOverhead {
			return events, off
		}
		plen := int(binary.LittleEndian.Uint32(body[off:]))
		if plen != payloadSize {
			// Future versions may vary payload size; v1 rejects anything
			// else, which also catches corrupted lengths early.
			return events, off
		}
		if len(body)-off-frameOverhead < plen {
			return events, off
		}
		payload := body[off+frameOverhead : off+frameOverhead+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(body[off+4:]) {
			return events, off
		}
		events = append(events, Event{
			Seq:      binary.LittleEndian.Uint64(payload[0:]),
			User:     int32(binary.LittleEndian.Uint32(payload[8:])),
			Item:     int32(binary.LittleEndian.Uint32(payload[12:])),
			UnixNano: int64(binary.LittleEndian.Uint64(payload[16:])),
		})
		off += frameOverhead + plen
	}
}

// recover scans the log, repairs the tail, and opens the final segment
// for appending. Called once from OpenWAL with no concurrency.
func (w *WAL) recover() (RecoveryInfo, error) {
	var info RecoveryInfo
	segs, err := w.segmentFiles()
	if err != nil {
		return info, err
	}
	var lastSeq uint64
	expectNext := uint64(0) // 0 = accept any first seq (head may be pruned)
	for idx, name := range segs {
		last := idx == len(segs)-1
		path := filepath.Join(w.dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return info, fmt.Errorf("feedback: %w", err)
		}
		firstSeq, herr := decodeHeader(raw)
		if herr != nil {
			if !last {
				return info, fmt.Errorf("feedback: sealed segment %s: %w", name, herr)
			}
			// The final segment's header never reached disk intact: the
			// crash hit before its first group fsync, so nothing in it was
			// acknowledged. Drop the whole file.
			if err := os.Remove(path); err != nil {
				return info, fmt.Errorf("feedback: drop torn segment: %w", err)
			}
			if err := store.SyncDir(w.dir); err != nil {
				return info, err
			}
			info.DroppedSegment = name
			w.cfg.Logger.Warn("feedback: dropped final segment with torn header",
				"segment", name, "err", herr)
			break
		}
		nameSeq, _ := parseSegmentName(name)
		if firstSeq != nameSeq {
			return info, fmt.Errorf("feedback: segment %s header claims first seq %d", name, firstSeq)
		}
		if expectNext != 0 && firstSeq != expectNext {
			return info, fmt.Errorf("feedback: segment %s starts at seq %d, want %d (gap in log)",
				name, firstSeq, expectNext)
		}
		events, consumed := decodeFrames(raw[headerSize:])
		// Verify sequence continuity inside the segment.
		for i, ev := range events {
			want := firstSeq + uint64(i)
			if ev.Seq != want {
				if !last {
					return info, fmt.Errorf("feedback: sealed segment %s: frame %d has seq %d, want %d",
						name, i, ev.Seq, want)
				}
				// Treat the discontinuity like a torn frame: cut here.
				events = events[:i]
				consumed = i * (frameOverhead + payloadSize)
				break
			}
		}
		tail := int64(len(raw)) - int64(headerSize) - int64(consumed)
		if tail > 0 {
			if !last {
				return info, fmt.Errorf("feedback: sealed segment %s has %d bytes of corruption at offset %d",
					name, tail, headerSize+consumed)
			}
			// Torn tail in the final segment: everything past the last
			// valid frame was never acknowledged. Truncate durably.
			if err := os.Truncate(path, int64(headerSize+consumed)); err != nil {
				return info, fmt.Errorf("feedback: truncate torn tail: %w", err)
			}
			if err := fsyncPath(path); err != nil {
				return info, err
			}
			info.TruncatedBytes = tail
			w.cfg.Logger.Warn("feedback: truncated torn WAL tail",
				"segment", name, "bytes", tail, "offset", headerSize+consumed)
		}
		info.Events += uint64(len(events))
		// A valid header pins the sequence chain even when the segment is
		// empty (a rotation crash after the header sync): it promises the
		// next record will be firstSeq, so every lower sequence number has
		// already been assigned. Deriving lastSeq only from decoded frames
		// would restart an empty log whose predecessors were pruned at
		// seq 0 — new appends would then contradict the active segment's
		// header and the NEXT recovery would discard them, acknowledged,
		// as a torn tail.
		if end := firstSeq - 1 + uint64(len(events)); end > lastSeq {
			lastSeq = end
		}
		expectNext = firstSeq + uint64(len(events))
		info.Segments++
	}
	info.LastSeq = lastSeq
	// Open (or create) the active segment.
	segs, err = w.segmentFiles()
	if err != nil {
		return info, err
	}
	if len(segs) == 0 {
		if err := w.openSegment(lastSeq + 1); err != nil {
			return info, err
		}
		info.Segments = 1
		return info, nil
	}
	name := segs[len(segs)-1]
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return info, fmt.Errorf("feedback: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return info, fmt.Errorf("feedback: %w", err)
	}
	w.f, w.size = f, st.Size()
	w.segFirst, _ = parseSegmentName(name)
	return info, nil
}

// openSegment creates a fresh segment whose first record will be firstSeq
// and makes its header and directory entry durable. Caller holds w.mu (or
// is in single-threaded recovery).
func (w *WAL) openSegment(firstSeq uint64) error {
	path := filepath.Join(w.dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	if _, err := f.Write(encodeHeader(firstSeq)); err != nil {
		f.Close()
		return fmt.Errorf("feedback: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("feedback: fsync %s: %w", path, err)
	}
	if err := store.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f, w.size, w.segFirst = f, headerSize, firstSeq
	return nil
}

// Pending is an in-flight append: the frame is written (and sequence
// number assigned) but possibly not yet durable.
type Pending struct {
	Seq uint64
	w   *WAL
}

// Append writes one event and returns once it is durable — the
// convenience wrapper around Begin + Wait.
func (w *WAL) Append(user, item int32, t time.Time) (uint64, error) {
	p, err := w.Begin(user, item, t)
	if err != nil {
		return 0, err
	}
	return p.Seq, p.Wait()
}

// Begin assigns the next sequence number and writes the frame, sealing
// the active segment first if it is full. It never fsyncs the frame: the
// event is NOT durable until Wait returns, and callers that ack
// externally must Wait first.
func (w *WAL) Begin(user, item int32, t time.Time) (Pending, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Sealing a full segment waits for fsyncs with w.mu released, during
	// which another appender may rotate or Close may run, so every pass
	// re-checks from the top. The old file is closed only when no fsync is
	// running on it and every frame in it is durable.
	for {
		if w.closed {
			return Pending{}, fmt.Errorf("feedback: log is closed")
		}
		if w.err != nil {
			return Pending{}, w.err
		}
		if w.size+frameOverhead+payloadSize <= w.cfg.SegmentBytes || w.size <= headerSize {
			break
		}
		if w.syncing {
			w.synced.Wait()
		} else if w.durable < w.seq {
			w.syncLocked(w.seq) // a failure is sticky: the next pass returns it
		} else if err := w.rotateLocked(w.seq + 1); err != nil {
			w.err = err
			return Pending{}, err
		}
	}
	// w.mu is held from here to the write, so the seq chosen is the frame
	// written next.
	next := w.seq + 1
	ev := Event{Seq: next, User: user, Item: item, UnixNano: t.UnixNano()}
	frame := encodeFrame(make([]byte, 0, frameOverhead+payloadSize), ev)
	if _, err := w.f.Write(frame); err != nil {
		w.err = fmt.Errorf("feedback: %w", err)
		return Pending{}, w.err
	}
	w.seq = next
	w.size += int64(len(frame))
	return Pending{Seq: next, w: w}, nil
}

// Wait blocks until the append is fsync-covered (or the log fails).
func (p Pending) Wait() error {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	return p.w.syncLocked(p.Seq)
}

// syncLocked is the log's one commit path: it returns once every frame
// through seq is durable, or the log has failed. If no fsync is running
// the caller runs one itself, covering everything written so far, with
// w.mu released so appends keep landing; otherwise it sleeps until that
// fsync finishes and checks again. One fsync therefore covers every
// append that landed while the previous one ran. Caller holds w.mu.
func (w *WAL) syncLocked(seq uint64) error {
	for w.err == nil && w.durable < seq {
		if w.syncing {
			w.synced.Wait()
			continue
		}
		upTo, f := w.seq, w.f
		w.syncing = true
		w.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		took := time.Since(start)
		w.mu.Lock()
		w.syncing = false
		if err != nil {
			w.err = fmt.Errorf("feedback: fsync: %w", err)
		} else {
			w.durable = upTo
			if w.cfg.FsyncSeconds != nil {
				w.cfg.FsyncSeconds.Observe(took.Seconds())
			}
		}
		w.synced.Broadcast()
	}
	return w.err
}

// Sync makes every written frame durable.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("feedback: log is closed")
	}
	return w.syncLocked(w.seq)
}

// rotateLocked closes the active segment and starts the next one at
// firstSeq. The caller holds w.mu with no fsync running and every frame
// durable, so the old segment is sealed before the new file's header and
// directory entry are made durable: recovery sees either the sealed old
// segment alone or both — never a gap.
func (w *WAL) rotateLocked(firstSeq uint64) error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	old := w.segFirst
	if err := w.openSegment(firstSeq); err != nil {
		return err
	}
	w.cfg.Logger.Info("feedback: rotated WAL segment",
		"sealed", segmentName(old), "active", segmentName(firstSeq))
	return nil
}

// LastSeq returns the last assigned sequence number.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Segments reports the number of live segment files.
func (w *WAL) Segments() int {
	segs, err := w.segmentFiles()
	if err != nil {
		return 0
	}
	return len(segs)
}

// Replay streams every durable event in log order. Call before concurrent
// appends start (startup) — written-but-unsynced frames are made durable
// first so the scan is complete.
func (w *WAL) Replay(fn func(Event) error) error {
	w.mu.Lock()
	var err error
	if !w.closed && w.err == nil {
		err = w.syncLocked(w.seq)
	}
	w.mu.Unlock()
	if err != nil {
		return err
	}
	segs, err := w.segmentFiles()
	if err != nil {
		return err
	}
	for _, name := range segs {
		raw, err := os.ReadFile(filepath.Join(w.dir, name))
		if err != nil {
			return fmt.Errorf("feedback: %w", err)
		}
		if _, err := decodeHeader(raw); err != nil {
			return fmt.Errorf("feedback: segment %s: %w", name, err)
		}
		events, _ := decodeFrames(raw[headerSize:])
		for _, ev := range events {
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// PruneTo removes sealed segments every record of which has sequence
// number <= seq. The active segment is never pruned. Pruning trims the
// log's disk footprint after promotion but also forgets the pruned
// events' contribution to exclusion history on a cold restart — callers
// opt in explicitly.
func (w *WAL) PruneTo(seq uint64) (removed int, err error) {
	w.mu.Lock()
	active := w.segFirst
	w.mu.Unlock()
	segs, err := w.segmentFiles()
	if err != nil {
		return 0, err
	}
	for i, name := range segs {
		first, _ := parseSegmentName(name)
		if first == active || i == len(segs)-1 {
			break
		}
		next, _ := parseSegmentName(segs[i+1])
		if next-1 > seq { // segment holds records beyond the watermark
			break
		}
		if err := os.Remove(filepath.Join(w.dir, name)); err != nil {
			return removed, fmt.Errorf("feedback: prune: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if err := store.SyncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close makes every written frame durable and closes the active segment
// once no fsync is running on it.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.err == nil {
		err = w.syncLocked(w.seq)
	}
	for w.syncing {
		w.synced.Wait()
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("feedback: %w", cerr)
	}
	return err
}

func fsyncPath(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("feedback: fsync %s: %w", path, err)
	}
	return nil
}

var _ io.Closer = (*WAL)(nil)
