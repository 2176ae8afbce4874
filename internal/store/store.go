// Package store persists trained factor models in one small binary format
// (format.go): a checksummed header with the dimensions and a JSON
// metadata block, then one page-aligned factor section of float64 or
// float32 values, as the flags say. A model trained by cmd/clapf-train can
// be reloaded for serving, evaluation or a resume without retraining.
//
// Writers: Save, SaveFile and WriteCheckpoint write a float64 *mf.Model,
// SaveF32File a float32 *mf.Factors32, and Export either, in its own
// width — which is how a feedback promotion re-exports whatever it was
// serving.
//
// Serving reads through one front door, Open: the file's width, not a
// caller's option, decides the in-memory representation (a float32 file
// mapped and served from the page cache, a float64 file parsed into a
// model) and the metadata comes back on every path. The streaming loaders
// (Load*, which widen a float32 section) stay for consumers that need a
// trainable float64 model whatever the file holds: resume, eval.
package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"clapf/internal/mf"
)

// Meta is the metadata block every model file carries: everything beyond
// the raw parameters that a resumable checkpoint or a feedback promotion
// needs. All fields are optional; the zero value is a valid (empty) block.
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

// Save writes the model to w as a float64 file with an empty metadata
// block.
func Save(w io.Writer, m *mf.Model) error {
	return save(w, m, nil)
}

// SaveFile writes the model to path atomically and durably: the bytes go
// to a temp file in the same directory, the temp file is fsynced before
// the rename, and the parent directory is fsynced after it — so after
// SaveFile returns, a power failure leaves either the old file or the
// complete new one, never a torn or vanished model.
func SaveFile(path string, m *mf.Model) error {
	return writeFile(path, m, nil)
}

// SaveF32File writes a float32 parameter set and its metadata to path with
// SaveFile's atomic, durable discipline.
func SaveF32File(path string, f *mf.Factors32, meta *Meta) error {
	return writeFile(path, f, meta)
}

// writeFile is the atomic, durable file write behind every Save*File and
// checkpoint: durable temp beside path, then Publish.
func writeFile(path string, p mf.Params, meta *Meta) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".clapf-model-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := writeDurable(tmp, p, meta); err != nil {
		return err
	}
	return Publish(tmp.Name(), path)
}

// writeDurable saves p into f, then flushes, fsyncs and closes it.
func writeDurable(f *os.File, p mf.Params, meta *Meta) error {
	bw := bufio.NewWriter(f)
	err := save(bw, p, meta)
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

// Export writes p and its metadata durably to tmp in p's own width:
// float64 for a *mf.Model, float32 for a *mf.Factors32. It is the first
// half of writeFile, split where a promotion needs it: the caller opens
// and installs the export, and only then makes it the model file with
// Publish. A failed export removes tmp.
func Export(tmp string, p mf.Params, meta *Meta) error {
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeDurable(f, p, meta); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
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
// alone decides how: a float32 file is mapped, its factor section is
// checksummed, and the result is a float32 *mf.Factors32 that pins its
// mapping (the pages are released by a finalizer once no reader can reach
// them); a float64 file is parsed into a *mf.Model. Either way the file
// must end exactly where its header says, and the returned Meta is never
// nil, so the feedback watermark travels with the file on every path.
func Open(path string) (mf.Params, *Meta, error) {
	file, br, h, err := openHeader(path)
	if err != nil {
		return nil, nil, err
	}
	defer file.Close()
	if h.width == 8 {
		m, err := readSection(br, h)
		if err != nil {
			return nil, nil, err
		}
		return m, h.meta, nil
	}
	mm, err := mapFile(file, h)
	if err != nil {
		return nil, nil, err
	}
	if err := mm.Verify(); err != nil {
		mm.Close()
		return nil, nil, err
	}
	return mm.f, mm.meta, nil
}

// openHeader opens path, parses its header and checks the file's size
// against it; the caller closes the file.
func openHeader(path string) (*os.File, *bufio.Reader, *header, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReader(file)
	h, err := readHeader(br)
	if err == nil {
		var st os.FileInfo
		if st, err = file.Stat(); err != nil {
			err = fmt.Errorf("store: %w", err)
		} else if want := int64(h.sectionOff + h.sectionLen); st.Size() != want {
			err = fmt.Errorf("store: file is %d bytes, header promises %d (truncated or trailing garbage)", st.Size(), want)
		}
	}
	if err != nil {
		file.Close()
		return nil, nil, nil, err
	}
	return file, br, h, nil
}

// Load reads a model from r, verifying both checksums and widening a
// float32 section. The metadata is discarded; use LoadWithMeta to keep it.
func Load(r io.Reader) (*mf.Model, error) {
	m, _, err := LoadWithMeta(r)
	return m, err
}

// LoadWithMeta reads a float64 model and its metadata (never nil) from r.
// A float32 file is widened, so resume and eval read either width.
func LoadWithMeta(r io.Reader) (*mf.Model, *Meta, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, nil, err
	}
	m, err := readSection(r, h)
	if err != nil {
		return nil, nil, err
	}
	return m, h.meta, nil
}

// LoadFile reads a model from path.
func LoadFile(path string) (*mf.Model, error) {
	m, _, err := LoadFileWithMeta(path)
	return m, err
}

// LoadFileWithMeta reads a model and its metadata from path.
func LoadFileWithMeta(path string) (*mf.Model, *Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return LoadWithMeta(bufio.NewReader(f))
}
