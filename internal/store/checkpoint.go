package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"clapf/internal/mf"
)

// Checkpoint file names are ckpt-<step>.clapf with a fixed-width step so
// lexical and numeric order agree.
const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".clapf"
	ckptDigits = 12
)

// CheckpointPath returns the canonical file name for a checkpoint taken at
// the given step, inside dir.
func CheckpointPath(dir string, step int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", ckptPrefix, ckptDigits, step, ckptSuffix))
}

// checkpointStep parses the step out of a checkpoint file name, reporting
// ok=false for names that are not checkpoints.
func checkpointStep(name string) (step int, ok bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// ListCheckpoints returns the checkpoint files in dir ordered newest
// (highest step) first. Non-checkpoint files are ignored. A missing
// directory is an empty list, not an error.
func ListCheckpoints(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint dir: %w", err)
	}
	type gen struct {
		step int
		path string
	}
	var gens []gen
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if step, ok := checkpointStep(e.Name()); ok {
			gens = append(gens, gen{step, filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].step > gens[j].step })
	paths := make([]string, len(gens))
	for i, g := range gens {
		paths[i] = g.path
	}
	return paths, nil
}

// WriteCheckpoint durably writes a float64 checkpoint for the given step
// into dir (creating it if needed) and prunes the directory so at most
// keep generations remain (keep <= 0 means keep everything). The file just
// written is never pruned. Generations with a higher step go first: they
// are a torn write or a timeline a rollback or a resume abandoned, and
// left in place they would outrank this one. Of the rest, the newest keep
// stay. Pruning failures are reported but the checkpoint itself is already
// safe on disk.
func WriteCheckpoint(dir string, m *mf.Model, meta *Meta, keep int) (string, error) {
	if meta == nil {
		meta = &Meta{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	path := CheckpointPath(dir, meta.Step)
	if err := writeFile(path, m, meta); err != nil {
		return "", err
	}
	if keep > 0 {
		gens, err := ListCheckpoints(dir)
		if err != nil {
			return path, err
		}
		at := slices.Index(gens, path) // newest first: gens[:at] are the higher steps
		for i, old := range gens {
			if i >= at && i < at+keep {
				continue
			}
			if err := os.Remove(old); err != nil {
				return path, fmt.Errorf("store: prune %s: %w", old, err)
			}
		}
	}
	return path, nil
}

// LatestCheckpoint loads the newest valid checkpoint in dir, skipping
// generations that fail to load (truncated, corrupt, or wrong format) —
// exactly what a crash mid-write or a torn disk leaves behind. It returns
// the loaded model and metadata, the path it came from, and the paths it
// had to skip. A directory with no valid checkpoint returns os.ErrNotExist
// (wrapped).
func LatestCheckpoint(dir string) (m *mf.Model, meta *Meta, path string, skipped []string, err error) {
	gens, err := ListCheckpoints(dir)
	if err != nil {
		return nil, nil, "", nil, err
	}
	for _, p := range gens {
		m, meta, loadErr := LoadFileWithMeta(p)
		if loadErr != nil {
			skipped = append(skipped, p)
			continue
		}
		return m, meta, p, skipped, nil
	}
	return nil, nil, "", skipped, fmt.Errorf("store: no valid checkpoint in %s: %w", dir, os.ErrNotExist)
}
