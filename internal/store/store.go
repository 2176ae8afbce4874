// Package store persists trained factor models in a small versioned binary
// format with an integrity checksum, so a model trained by cmd/clapf-train
// can be reloaded for serving or later evaluation without retraining.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "CLAPFMF\x00"
//	version uint32
//	flags   uint32   bit 0: has item bias
//	users   uint64
//	items   uint64
//	dim     uint64
//	U       users·dim float64 bits
//	V       items·dim float64 bits
//	B       items float64 bits (only when bias flag set)
//	meta    uint32 length + JSON bytes (version >= 2 only)
//	crc     uint32   CRC-32 (IEEE) of everything above
//
// Version 1 files carry only the parameters; version 2 appends a metadata
// trailer (training step, RNG state, hyper-parameters, train-data
// fingerprint) that makes a file a resumable training checkpoint. Both
// versions remain loadable. Plain Save still emits version 1 so model
// files consumed by older tooling are byte-identical; SaveWithMeta emits
// version 2.
//
// Version 3 (storef32.go) is the serving-side export format: a
// page-aligned, little-endian float32 flat section with split header and
// section checksums.
//
// Writers: Save/SaveFile emit v1, SaveWithMeta/SaveFileWithMeta (every
// training checkpoint) v2, SaveF32/SaveF32File v3; Export picks by
// representation — *mf.Model as v2, *mf.Factors32 as v3 — which is how a
// feedback promotion re-exports whatever it was serving.
//
// Serving reads through one front door, Open: the file's version word,
// not a caller's option, decides the in-memory representation (v3 mapped
// and served as float32 from the page cache, v1/v2 parsed into a float64
// model) and the metadata comes back on every path. The streaming loaders
// (Load*, which widen a v3 section) stay for consumers that need a
// trainable float64 model whatever the file holds: resume, eval.
package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"clapf/internal/mf"
)

var magic = [8]byte{'C', 'L', 'A', 'P', 'F', 'M', 'F', 0}

// Version is the current float64 streaming format version (v3, the
// float32 flat format, is VersionF32 in storef32.go).
const Version uint32 = 2

const flagBias uint32 = 1

// maxMetaLen bounds the metadata trailer so a corrupt length field cannot
// drive a huge allocation before the checksum is verified.
const maxMetaLen = 1 << 20

// Meta is the version-2 metadata trailer: everything beyond the raw
// parameters that a resumable checkpoint needs. All fields are optional;
// the zero value is a valid (empty) trailer.
type Meta struct {
	// Epoch and Step locate the checkpoint in the training schedule
	// (Step counts SGD updates; Epoch is Step in epoch-equivalents).
	Epoch int `json:"epoch,omitempty"`
	Step  int `json:"step,omitempty"`
	// TotalSteps is the configured step budget of the interrupted run.
	TotalSteps int `json:"total_steps,omitempty"`
	// RNG and SamplerRNG are xoshiro256** state words (4 each) of the
	// trainer's and triple sampler's generators.
	RNG        []uint64 `json:"rng,omitempty"`
	SamplerRNG []uint64 `json:"sampler_rng,omitempty"`
	// SamplerSteps preserves the sampler's refresh schedule position.
	SamplerSteps int `json:"sampler_steps,omitempty"`
	// LossEWMA and LossN restore the smoothed-loss accumulator so the
	// telemetry curve is continuous across a resume.
	LossEWMA float64 `json:"loss_ewma,omitempty"`
	LossN    int     `json:"loss_n,omitempty"`
	// DataFingerprint is dataset.Fingerprint() of the training split; a
	// resume against different data is refused.
	DataFingerprint uint64 `json:"data_fingerprint,omitempty"`
	// Hyper records the run's hyper-parameters as printable strings so a
	// resume can verify it continues the same optimization problem.
	Hyper map[string]string `json:"hyper,omitempty"`
	// Workers holds per-worker RNG streams for parallel (Hogwild) training
	// checkpoints; empty for serial runs. A resume must be configured with
	// the same worker count.
	Workers []WorkerMeta `json:"workers,omitempty"`
	// SinceRefresh preserves the parallel trainer's position in the
	// rank-list rebuild cadence.
	SinceRefresh int `json:"since_refresh,omitempty"`
	// FeedbackSeq is the streaming-ingest watermark: the last feedback
	// WAL sequence number whose fold-in update is baked into the user
	// factors of this file. On startup the serving stack replays only WAL
	// events beyond it, so a crash between a promotion export and the
	// promote step recovers to exactly the factors an uninterrupted run
	// would hold. Zero means no feedback is incorporated.
	FeedbackSeq uint64 `json:"feedback_seq,omitempty"`
}

// WorkerMeta is one Hogwild worker's resumable state inside a parallel
// training checkpoint.
type WorkerMeta struct {
	// RNG is the worker's record-selection generator (4 xoshiro256**
	// state words).
	RNG []uint64 `json:"rng"`
	// SamplerRNG and SamplerSteps are the worker's sampler-view state.
	SamplerRNG   []uint64 `json:"sampler_rng"`
	SamplerSteps int      `json:"sampler_steps"`
}

// Save writes the model to w in version-1 format (no metadata trailer).
func Save(w io.Writer, m *mf.Model) error {
	return save(w, m, nil)
}

// SaveWithMeta writes the model and metadata trailer to w in version-2
// format.
func SaveWithMeta(w io.Writer, m *mf.Model, meta *Meta) error {
	if meta == nil {
		meta = &Meta{}
	}
	return save(w, m, meta)
}

func save(w io.Writer, m *mf.Model, meta *Meta) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)

	if _, err := mw.Write(magic[:]); err != nil {
		return fmt.Errorf("store: write magic: %w", err)
	}
	var flags uint32
	if m.HasBias() {
		flags |= flagBias
	}
	version := uint32(1)
	if meta != nil {
		version = 2
	}
	if err := writeU32(mw, version); err != nil {
		return err
	}
	if err := writeU32(mw, flags); err != nil {
		return err
	}
	for _, v := range []uint64{uint64(m.NumUsers()), uint64(m.NumItems()), uint64(m.Dim())} {
		if err := writeU64(mw, v); err != nil {
			return err
		}
	}
	u, v, b := m.RawParams()
	for _, block := range [][]float64{u, v, b} {
		if err := writeFloats(mw, block); err != nil {
			return err
		}
	}
	if meta != nil {
		buf, err := encodeMeta(meta)
		if err != nil {
			return err
		}
		if err := writeU32(mw, uint32(len(buf))); err != nil {
			return err
		}
		if _, err := mw.Write(buf); err != nil {
			return fmt.Errorf("store: write meta: %w", err)
		}
	}
	return writeU32(w, crc.Sum32())
}

// encodeMeta marshals the metadata block v2 and v3 carry length-prefixed.
func encodeMeta(meta *Meta) ([]byte, error) {
	buf, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encode meta: %w", err)
	}
	if len(buf) > maxMetaLen {
		return nil, fmt.Errorf("store: meta trailer is %d bytes, limit %d", len(buf), maxMetaLen)
	}
	return buf, nil
}

// readMetaRaw reads that block, still undecoded: decoding waits
// (decodeMeta) until a checksum has vouched for the bytes, so a torn block
// surfaces as a checksum error, not a JSON one.
func readMetaRaw(r io.Reader) ([]byte, error) {
	metaLen, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("store: read meta length: %w", err)
	}
	if metaLen > maxMetaLen {
		return nil, fmt.Errorf("store: meta trailer length %d exceeds limit %d", metaLen, maxMetaLen)
	}
	raw := make([]byte, metaLen)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("store: read meta: %w", err)
	}
	return raw, nil
}

func decodeMeta(raw []byte) (*Meta, error) {
	meta := &Meta{}
	if err := json.Unmarshal(raw, meta); err != nil {
		return nil, fmt.Errorf("store: decode meta: %w", err)
	}
	return meta, nil
}

// Load reads a model written by Save or SaveWithMeta, verifying magic,
// version, and checksum. Any metadata trailer is discarded; use
// LoadWithMeta to keep it.
func Load(r io.Reader) (*mf.Model, error) {
	m, _, err := LoadWithMeta(r)
	return m, err
}

// crcReader reads a model file through a running CRC-32: format words
// come off tee and enter the digest, the checksum words that vouch for
// them come off raw and do not.
type crcReader struct {
	raw io.Reader
	crc hash.Hash32
	tee io.Reader
}

func newCRCReader(r io.Reader) *crcReader {
	crc := crc32.NewIEEE()
	return &crcReader{raw: r, crc: crc, tee: io.TeeReader(r, crc)}
}

// header is the leading words every format version shares.
type header struct {
	version, flags uint32
	dims           [3]uint64 // users, items, dim
}

// readHeader is the one parse of magic, version, flags and dimensions;
// the formats diverge only after it.
func readHeader(r *crcReader) (header, error) {
	var h header
	var gotMagic [8]byte
	if _, err := io.ReadFull(r.tee, gotMagic[:]); err != nil {
		return h, fmt.Errorf("store: read magic: %w", err)
	}
	if gotMagic != magic {
		return h, fmt.Errorf("store: bad magic %q", gotMagic[:])
	}
	var err error
	if h.version, err = readU32(r.tee); err != nil {
		return h, err
	}
	if h.version < 1 || h.version > VersionF32 {
		return h, fmt.Errorf("store: unsupported version %d (have %d)", h.version, VersionF32)
	}
	if h.flags, err = readU32(r.tee); err != nil {
		return h, err
	}
	for i := range h.dims {
		if h.dims[i], err = readU64(r.tee); err != nil {
			return h, err
		}
	}
	return h, validateDims(h.dims[:])
}

// LoadWithMeta reads a model and its metadata trailer. For version-1 files
// the returned Meta is nil. A version-3 file is widened into a float64
// Model, so every v1/v2 consumer reads it transparently.
func LoadWithMeta(r io.Reader) (*mf.Model, *Meta, error) {
	cr := newCRCReader(r)
	h, err := readHeader(cr)
	if err != nil {
		return nil, nil, err
	}
	if h.version == VersionF32 {
		return loadV3Stream(cr, h)
	}
	return loadV12(cr, h)
}

// loadV12 parses the float64 formats from the point just after the header.
func loadV12(r *crcReader, h header) (*mf.Model, *Meta, error) {
	numUsers, numItems, dim := int(h.dims[0]), int(h.dims[1]), int(h.dims[2])
	useBias := h.flags&flagBias != 0

	u, err := readFloats(r.tee, numUsers*dim)
	if err != nil {
		return nil, nil, err
	}
	v, err := readFloats(r.tee, numItems*dim)
	if err != nil {
		return nil, nil, err
	}
	var b []float64
	if useBias {
		if b, err = readFloats(r.tee, numItems); err != nil {
			return nil, nil, err
		}
	}
	var metaRaw []byte
	if h.version >= 2 {
		if metaRaw, err = readMetaRaw(r.tee); err != nil {
			return nil, nil, err
		}
	}
	wantSum := r.crc.Sum32()
	gotSum, err := readU32(r.raw)
	if err != nil {
		return nil, nil, fmt.Errorf("store: read checksum: %w", err)
	}
	if gotSum != wantSum {
		return nil, nil, fmt.Errorf("store: checksum mismatch: file %08x, computed %08x", gotSum, wantSum)
	}
	m, err := mf.FromRaw(mf.Config{
		NumUsers: numUsers,
		NumItems: numItems,
		Dim:      dim,
		UseBias:  useBias,
	}, u, v, b)
	if err != nil {
		return nil, nil, err
	}
	var meta *Meta
	if h.version >= 2 {
		if meta, err = decodeMeta(metaRaw); err != nil {
			return nil, nil, err
		}
	}
	return m, meta, nil
}

// SaveFile writes the model to path atomically and durably: the bytes go
// to a temp file in the same directory, the temp file is fsynced before
// the rename, and the parent directory is fsynced after it — so after
// SaveFile returns, a power failure leaves either the old file or the
// complete new one, never a torn or vanished model.
func SaveFile(path string, m *mf.Model) error {
	return writeFile(path, func(w io.Writer) error { return Save(w, m) })
}

// SaveFileWithMeta is SaveFile for version-2 checkpoints.
func SaveFileWithMeta(path string, m *mf.Model, meta *Meta) error {
	return writeFile(path, func(w io.Writer) error { return SaveWithMeta(w, m, meta) })
}

// writeFile is the atomic, durable file write behind every Save*File:
// durable temp beside path, then Publish.
func writeFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".clapf-model-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := writeDurable(tmp, write); err != nil {
		return err
	}
	return Publish(tmp.Name(), path)
}

// writeDurable streams write into f, then flushes, fsyncs and closes it.
func writeDurable(f *os.File, write func(io.Writer) error) error {
	bw := bufio.NewWriter(f)
	err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: write %s: %w", f.Name(), err)
	}
	return nil
}

// Export writes p and its metadata durably to tmp in p's own
// representation: version 2 for a float64 *mf.Model, version 3 for a
// float32 *mf.Factors32. It is the first half of writeFile, split where a
// promotion needs it: the caller opens and installs the export, and only
// then makes it the model file with Publish. A failed export removes tmp.
func Export(tmp string, p mf.Params, meta *Meta) error {
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = writeDurable(f, func(w io.Writer) error {
		switch p := p.(type) {
		case *mf.Model:
			return SaveWithMeta(w, p, meta)
		case *mf.Factors32:
			return SaveF32(w, p, meta)
		}
		return fmt.Errorf("store: cannot export a %T", p)
	})
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Publish renames the durable file tmp onto path and fsyncs the
// directory, so the rename itself survives power loss.
func Publish(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so a just-renamed entry survives power loss
// (the feedback WAL seals and prunes segments through it too).
// Filesystems that do not support fsync on directories report that as a
// non-error here: the rename itself already happened.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return fmt.Errorf("store: fsync dir %s: %w", dir, err)
	}
	return nil
}

// Open reads the model file at path the way it is served, and the file
// alone decides how: a version-3 file is mapped, its factor section is
// checksummed, and the result is a float32 *mf.Factors32 that pins its
// mapping (the pages are released by a finalizer once no reader can reach
// them); a version-1 or -2 file is parsed into a float64 *mf.Model. The
// returned Meta is never nil — a file without a trailer yields the zero
// Meta — so the feedback watermark travels with the file on every path.
func Open(path string) (mf.Params, *Meta, error) {
	file, cr, h, err := openHeader(path)
	if err != nil {
		return nil, nil, err
	}
	defer file.Close()
	if h.version != VersionF32 {
		m, meta, err := loadV12(cr, h)
		if err != nil {
			return nil, nil, err
		}
		if meta == nil {
			meta = &Meta{}
		}
		return m, meta, nil
	}
	mm, err := mapV3(file, cr, h)
	if err != nil {
		return nil, nil, err
	}
	if err := mm.Verify(); err != nil {
		mm.Close()
		return nil, nil, err
	}
	return mm.f, mm.meta, nil
}

// openHeader opens path and parses the shared header; the caller closes
// the file.
func openHeader(path string) (*os.File, *crcReader, header, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, nil, header{}, fmt.Errorf("store: %w", err)
	}
	cr := newCRCReader(bufio.NewReader(file))
	h, err := readHeader(cr)
	if err != nil {
		file.Close()
		return nil, nil, h, err
	}
	return file, cr, h, nil
}

// LoadFile reads a model from path.
func LoadFile(path string) (*mf.Model, error) {
	m, _, err := LoadFileWithMeta(path)
	return m, err
}

// LoadFileWithMeta reads a model and its metadata trailer from path.
func LoadFileWithMeta(path string) (*mf.Model, *Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return LoadWithMeta(bufio.NewReader(f))
}

// validateDims rejects dimension words no real model could have written,
// so a corrupt header cannot drive a huge allocation before any checksum
// is verified.
func validateDims(dims []uint64) error {
	const maxDim = 1 << 31
	if dims[0] == 0 || dims[1] == 0 || dims[2] == 0 ||
		dims[0] > maxDim || dims[1] > maxDim || dims[2] > 1<<20 {
		return fmt.Errorf("store: implausible dimensions %v", dims)
	}
	if dims[0]*dims[2] > 1<<34 || dims[1]*dims[2] > 1<<34 {
		return fmt.Errorf("store: parameter block too large: %v", dims)
	}
	return nil
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeFloats(w io.Writer, xs []float64) error {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func readFloats(r io.Reader, n int) ([]float64, error) {
	// Allocate 32 MB at most up front and the rest as the bytes arrive: a
	// corrupt dimension word must run into EOF, not into a huge make.
	xs := make([]float64, 0, min(n, 1<<22))
	raw := make([]byte, 8*min(n, 1<<16))
	for len(xs) < n {
		buf := raw[:min(len(raw), 8*(n-len(xs)))]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("store: read %d floats: %w", n, err)
		}
		for ; len(buf) > 0; buf = buf[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
		}
	}
	return xs, nil
}
