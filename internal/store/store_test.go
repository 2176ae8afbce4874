package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"clapf/internal/mathx"
	"clapf/internal/mf"
)

func sampleModel(seed uint64, useBias bool) *mf.Model {
	m := mf.MustNew(mf.Config{NumUsers: 7, NumItems: 11, Dim: 5, UseBias: useBias})
	m.InitGaussian(mathx.NewRNG(seed), 0.4)
	if useBias {
		for i := int32(0); i < 11; i++ {
			m.AddBias(i, mathx.NewRNG(seed+uint64(i)).NormFloat64())
		}
	}
	return m
}

func modelsEqual(a, b *mf.Model) bool {
	if a.NumUsers() != b.NumUsers() || a.NumItems() != b.NumItems() ||
		a.Dim() != b.Dim() || a.HasBias() != b.HasBias() {
		return false
	}
	for u := int32(0); u < int32(a.NumUsers()); u++ {
		for i := int32(0); i < int32(a.NumItems()); i++ {
			if a.Score(u, i) != b.Score(u, i) {
				return false
			}
		}
	}
	return true
}

// widths are the element widths the format holds, in bytes.
var widths = []int{8, 4}

// asWidth is m in the representation that writes width-byte elements.
func asWidth(m *mf.Model, width int) mf.Params {
	if width == 4 {
		return mf.QuantizeF32(m)
	}
	return m
}

// saveBytes serializes p through save into memory.
func saveBytes(t testing.TB, p mf.Params, meta *Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf, p, meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeTemp writes raw to a fresh file and returns its path.
func writeTemp(t testing.TB, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.clapf")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readAll runs raw, also written at path, through every reader: the
// streaming loader, Open and LoadMapped followed by Verify (closing what
// it maps). It returns each reader's error, keyed by reader.
func readAll(path string, raw []byte) map[string]error {
	_, _, loadErr := LoadWithMeta(bytes.NewReader(raw))
	_, _, openErr := Open(path)
	mm, mapErr := LoadMapped(path)
	if mapErr == nil {
		mapErr = mm.Verify()
		mm.Close()
	}
	return map[string]error{"LoadWithMeta": loadErr, "Open": openErr, "LoadMapped": mapErr}
}

// TestRoundTrip writes both widths, with and without bias, and reads each
// file back bit for bit through every reader: the streaming loader widens,
// Open hands back the representation that was written (a float32 file
// mapped), LoadMapped maps a float32 file.
func TestRoundTrip(t *testing.T) {
	for _, width := range widths {
		for _, useBias := range []bool{true, false} {
			p := asWidth(sampleModel(1, useBias), width)
			raw := saveBytes(t, p, sampleMeta())
			got, meta, err := LoadWithMeta(bytes.NewReader(raw))
			if err != nil || !sameParams(p, got) || !metasEqual(sampleMeta(), meta) {
				t.Fatalf("width %d bias %v: LoadWithMeta changed the model or meta (%v)", width, useBias, err)
			}
			path := writeTemp(t, raw)
			opened, meta, err := Open(path)
			if err != nil || !sameParams(p, opened) || !metasEqual(sampleMeta(), meta) {
				t.Fatalf("width %d bias %v: Open changed the model or meta (%v)", width, useBias, err)
			}
			if opened.ElemBytes() != width {
				t.Errorf("width %d: Open made a %T", width, opened)
			}
			if width != 4 {
				continue
			}
			mm, err := LoadMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			if !f32Equal(p.(*mf.Factors32), mm.Factors()) || !metasEqual(sampleMeta(), mm.meta) {
				t.Errorf("bias %v: LoadMapped changed the model or meta", useBias)
			}
			mm.Close()
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, useBias bool) bool {
		m := sampleModel(seed, useBias)
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			return false
		}
		got, err := Load(&buf)
		return err == nil && modelsEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	for _, width := range widths {
		clean := saveBytes(t, asWidth(sampleModel(2, true), width), nil)
		// Every reader must refuse.
		reject := func(what string, raw []byte) {
			t.Helper()
			for reader, err := range readAll(writeTemp(t, raw), raw) {
				if err == nil {
					t.Errorf("width %d: %s: %s accepted", width, reader, what)
				}
			}
		}

		// Flip one byte in the middle of the section: its checksum must
		// catch it.
		corrupt := append([]byte(nil), clean...)
		sectionOff := le.Uint64(clean[40:])
		corrupt[(int(sectionOff)+len(clean))/2] ^= 0xFF
		reject("corrupted payload", corrupt)

		// Truncation must fail cleanly.
		reject("truncated payload", clean[:len(clean)-10])

		// Wrong magic.
		bad := append([]byte(nil), clean...)
		bad[0] = 'X'
		reject("bad magic", bad)

		// Wrong version.
		badv := append([]byte(nil), clean...)
		badv[8] = 0xFE
		reject("bad version", badv)

		// An unknown flag bit, under a recomputed header checksum.
		badf := append([]byte(nil), clean...)
		badf[12] |= 0x80
		rehash(badf)
		reject("unknown flag", badf)
	}
}

// rehash recomputes raw's header checksum after a test edited the header.
func rehash(raw []byte) {
	end := headerFixed + int(le.Uint32(raw[60:]))
	le.PutUint32(raw[end-4:], crc32.ChecksumIEEE(raw[:end-4]))
}

// oldFormat writes m (which must have biases) the way the retired
// float64 formats did: version 1 is the header words and the U, V, B
// blocks under one trailing CRC; version 2 adds a length-prefixed
// metadata block before that CRC.
func oldFormat(version uint32, m *mf.Model) []byte {
	raw := le.AppendUint32(append([]byte(nil), magic[:]...), version)
	raw = le.AppendUint32(raw, flagBias)
	for _, x := range []int{m.NumUsers(), m.NumItems(), m.Dim()} {
		raw = le.AppendUint64(raw, uint64(x))
	}
	u, v, b := m.RawParams()
	for _, xs := range [][]float64{u, v, b} {
		for _, x := range xs {
			raw = le.AppendUint64(raw, math.Float64bits(x))
		}
	}
	if version == 2 {
		raw = append(le.AppendUint32(raw, 2), "{}"...)
	}
	return le.AppendUint32(raw, crc32.ChecksumIEEE(raw))
}

// TestLoadRejectsOldVersions: a file in a retired format is refused by
// every reader with its version named, and a checkpoint directory whose
// newest generation is one falls back to an older good generation.
func TestLoadRejectsOldVersions(t *testing.T) {
	m := sampleModel(17, true)
	for _, version := range []uint32{1, 2} {
		raw := oldFormat(version, m)
		for reader, err := range readAll(writeTemp(t, raw), raw) {
			if want := fmt.Sprintf("version %d", version); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s of a version-%d file: err = %v, want one naming %q", reader, version, err, want)
			}
		}
	}

	dir := t.TempDir()
	good, err := WriteCheckpoint(dir, m, &Meta{Step: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	old := CheckpointPath(dir, 200)
	if err := os.WriteFile(old, oldFormat(2, m), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, meta, path, skipped, err := LatestCheckpoint(dir); err != nil || path != good || meta.Step != 100 ||
		len(skipped) != 1 || skipped[0] != old {
		t.Errorf("LatestCheckpoint = %s (skipped %v, err %v), want %s skipping %s", path, skipped, err, good, old)
	}
}

func TestLoadRejectsHugeDimensions(t *testing.T) {
	m := sampleModel(3, false)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The users field lives at offset 16; blow it up, under a recomputed
	// header checksum, to provoke the allocation guard before any huge
	// read happens.
	for i := 16; i < 24; i++ {
		data[i] = 0xFF
	}
	rehash(data)
	if _, err := Load(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Error("implausible dimensions accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.clapf")
	m := sampleModel(4, true)
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(m, got) {
		t.Error("file round trip changed the model")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want only the model file", len(entries))
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing file accepted")
	}
}

// failAfter writes n bytes successfully, then errors — exercising every
// partial-write path in Save.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		can := f.n - f.written
		if can < 0 {
			can = 0
		}
		f.written += can
		return can, errFail
	}
	f.written += len(p)
	return len(p), nil
}

var errFail = os.ErrClosed

func TestSaveWriteErrors(t *testing.T) {
	m := sampleModel(6, true)
	// Probe failure at several offsets covering the header, the padding,
	// the first section chunk and the section's last byte.
	for _, n := range []int{0, 4, 10, 20, 40, 200, 800, 4096, 4100, 4096 + 8*101 - 1} {
		w := &failAfter{n: n}
		if err := Save(w, m); err == nil {
			t.Errorf("Save with writer failing at byte %d succeeded", n)
		}
	}
}

func TestSaveFileUnwritableDir(t *testing.T) {
	m := sampleModel(7, false)
	if err := SaveFile("/nonexistent-dir-xyz/m.clapf", m); err == nil {
		t.Error("unwritable directory accepted")
	}
}

func sampleMeta() *Meta {
	return &Meta{
		Epoch:           3,
		Step:            1234,
		TotalSteps:      9999,
		RNG:             []uint64{1, 2, 3, 4},
		SamplerRNG:      []uint64{5, 6, 7, 8},
		SamplerSteps:    1234,
		LossEWMA:        0.573125,
		LossN:           1024,
		DataFingerprint: 0xDEADBEEFCAFE,
		Hyper:           map[string]string{"lambda": "0.4", "variant": "MAP"},
	}
}

func metasEqual(a, b *Meta) bool {
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	return bytes.Equal(aj, bj)
}

// TestMetaRoundTrip: the metadata comes back through the streaming
// loader, and a file saved without any comes back with the empty block,
// never nil.
func TestMetaRoundTrip(t *testing.T) {
	m := sampleModel(9, true)
	for _, meta := range []*Meta{sampleMeta(), nil} {
		got, gotMeta, err := LoadWithMeta(bytes.NewReader(saveBytes(t, m, meta)))
		if err != nil {
			t.Fatal(err)
		}
		if !modelsEqual(m, got) {
			t.Error("round trip changed the model")
		}
		if meta == nil {
			meta = &Meta{}
		}
		if gotMeta == nil || !metasEqual(meta, gotMeta) {
			t.Errorf("meta round trip: got %+v, want %+v", gotMeta, meta)
		}
	}
}

func TestLoadDiscardsMetaButVerifies(t *testing.T) {
	m := sampleModel(11, false)
	data := saveBytes(t, m, sampleMeta())
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(m, got) {
		t.Error("Load changed the model")
	}
	// Corrupting a byte inside the metadata must still fail Load: the
	// header checksum covers it.
	data[headerFixed+5] ^= 0x01
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt metadata accepted")
	}
}

func TestMetaFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.clapf")
	m := sampleModel(12, true)
	meta := sampleMeta()
	if err := writeFile(path, m, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := LoadFileWithMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(m, got) || !metasEqual(meta, gotMeta) {
		t.Error("file meta round trip mismatch")
	}
}

func TestLoadRejectsHugeMetaLength(t *testing.T) {
	data := saveBytes(t, sampleModel(13, false), nil)
	// The meta length word sits right before the metadata JSON.
	le.PutUint32(data[headerFixed-8:], 0xFFFFFFFF)
	if _, _, err := LoadWithMeta(bytes.NewReader(data)); err == nil {
		t.Error("huge meta length accepted")
	}
}

func TestLoadTruncatedEverywhere(t *testing.T) {
	m := sampleModel(8, true)
	path := filepath.Join(t.TempDir(), "m.clapf")
	// Truncating at every byte offset must fail, never panic — at both
	// widths, through every reader.
	for _, width := range widths {
		full := saveBytes(t, asWidth(m, width), sampleMeta())
		for n := 0; n < len(full); n++ {
			if err := os.WriteFile(path, full[:n], 0o644); err != nil {
				t.Fatal(err)
			}
			for reader, err := range readAll(path, full[:n]) {
				if err == nil {
					t.Fatalf("width %d: %s accepted a truncation at %d bytes", width, reader, n)
				}
			}
		}
	}
}
