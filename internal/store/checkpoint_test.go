package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointPathRoundTrip(t *testing.T) {
	p := CheckpointPath("/tmp/x", 42)
	step, ok := checkpointStep(filepath.Base(p))
	if !ok || step != 42 {
		t.Fatalf("checkpointStep(%q) = %d, %v", filepath.Base(p), step, ok)
	}
	for _, bad := range []string{"model.clapf", "ckpt-.clapf", "ckpt-12x.clapf", "ckpt-000000000001", "x-ckpt-000000000001.clapf"} {
		if _, ok := checkpointStep(bad); ok {
			t.Errorf("checkpointStep(%q) accepted", bad)
		}
	}
}

func TestWriteCheckpointKeepsLastN(t *testing.T) {
	dir := t.TempDir()
	m := sampleModel(20, true)
	for _, step := range []int{100, 200, 300, 400} {
		if _, err := WriteCheckpoint(dir, m, &Meta{Step: step}, 2); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("kept %d generations, want 2: %v", len(gens), gens)
	}
	if filepath.Base(gens[0]) != filepath.Base(CheckpointPath(dir, 400)) ||
		filepath.Base(gens[1]) != filepath.Base(CheckpointPath(dir, 300)) {
		t.Errorf("kept wrong generations: %v", gens)
	}
}

// TestWriteCheckpointNeverPrunesItself: a generation with a higher step —
// a torn write, or a timeline a rollback abandoned — must not push the
// file just written out of the keep window.
func TestWriteCheckpointNeverPrunesItself(t *testing.T) {
	dir := t.TempDir()
	m := sampleModel(22, true)
	for _, step := range []int{1000, 2000} {
		if _, err := WriteCheckpoint(dir, m, &Meta{Step: step}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(CheckpointPath(dir, 3000), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	path, err := WriteCheckpoint(dir, m, &Meta{Step: 2500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != path {
		t.Errorf("after writing %s with keep=1 the directory holds %v", path, gens)
	}
	if _, meta, _, skipped, err := LatestCheckpoint(dir); err != nil || meta.Step != 2500 || len(skipped) != 0 {
		t.Errorf("LatestCheckpoint = step %v, skipped %v, err %v; want the 2500 just written", meta, skipped, err)
	}

	// Stepping back below older generations (a rollback's next write)
	// keeps the window behind the new file, not ahead of it.
	for _, step := range []int{2600, 2700} {
		if _, err := WriteCheckpoint(dir, m, &Meta{Step: step}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := WriteCheckpoint(dir, m, &Meta{Step: 2550}, 2); err != nil {
		t.Fatal(err)
	}
	gens, _ = ListCheckpoints(dir)
	if len(gens) != 2 || gens[0] != CheckpointPath(dir, 2550) || gens[1] != CheckpointPath(dir, 2500) {
		t.Errorf("after stepping back to 2550 with keep=2 the directory holds %v", gens)
	}
}

func TestLatestCheckpointSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	m := sampleModel(21, false)
	if _, err := WriteCheckpoint(dir, m, &Meta{Step: 100}, 0); err != nil {
		t.Fatal(err)
	}
	goodPath, err := WriteCheckpoint(dir, m, &Meta{Step: 200}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write of generation 300: a truncated file.
	full, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	tornPath := CheckpointPath(dir, 300)
	if err := os.WriteFile(tornPath, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, meta, path, skipped, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != goodPath {
		t.Errorf("resumed from %s, want %s", path, goodPath)
	}
	if meta.Step != 200 {
		t.Errorf("meta.Step = %d, want 200", meta.Step)
	}
	if len(skipped) != 1 || skipped[0] != tornPath {
		t.Errorf("skipped = %v, want [%s]", skipped, tornPath)
	}
	if !modelsEqual(m, got) {
		t.Error("resumed model differs")
	}
}

func TestLatestCheckpointEmptyAndMissing(t *testing.T) {
	// Missing directory: not-exist error, no panic.
	_, _, _, _, err := LatestCheckpoint(filepath.Join(t.TempDir(), "absent"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing dir: err = %v, want ErrNotExist", err)
	}

	// Directory with only garbage: every generation skipped, then not-exist.
	dir := t.TempDir()
	if err := os.WriteFile(CheckpointPath(dir, 1), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, skipped, err := LatestCheckpoint(dir)
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("all-corrupt dir: err = %v, want ErrNotExist", err)
	}
	if len(skipped) != 1 {
		t.Errorf("skipped = %v, want one entry", skipped)
	}
}
