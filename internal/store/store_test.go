package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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

func TestRoundTrip(t *testing.T) {
	for _, useBias := range []bool{true, false} {
		m := sampleModel(1, useBias)
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatalf("Save(bias=%v): %v", useBias, err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load(bias=%v): %v", useBias, err)
		}
		if !modelsEqual(m, got) {
			t.Errorf("round trip (bias=%v) changed the model", useBias)
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

// openBytes runs Open, the serving front door, over raw as a file.
func openBytes(t testing.TB, raw []byte) (mf.Params, *Meta, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.clapf")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(path)
}

func TestLoadRejectsCorruption(t *testing.T) {
	m := sampleModel(2, true)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	// Both readers — the streaming loader and Open — must refuse.
	reject := func(what string, raw []byte) {
		t.Helper()
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("Load: %s accepted", what)
		}
		if _, _, err := openBytes(t, raw); err == nil {
			t.Errorf("Open: %s accepted", what)
		}
	}

	// Flip one byte in the parameter region: checksum must catch it.
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)/2] ^= 0xFF
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
}

func TestLoadRejectsHugeDimensions(t *testing.T) {
	m := sampleModel(3, false)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The users field lives at offset 16; blow it up to provoke the
	// allocation guard before any huge read happens.
	for i := 16; i < 24; i++ {
		data[i] = 0xFF
	}
	if _, err := Load(bytes.NewReader(data)); err == nil {
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
	// Probe failure at several offsets covering magic, header, params, and
	// the trailing checksum.
	for _, n := range []int{0, 4, 10, 20, 40, 200, 800, 849} {
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

func TestMetaRoundTrip(t *testing.T) {
	m := sampleModel(9, true)
	meta := sampleMeta()
	var buf bytes.Buffer
	if err := SaveWithMeta(&buf, m, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := LoadWithMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(m, got) {
		t.Error("v2 round trip changed the model")
	}
	if gotMeta == nil || !metasEqual(meta, gotMeta) {
		t.Errorf("meta round trip: got %+v, want %+v", gotMeta, meta)
	}
}

func TestV1FilesStillLoad(t *testing.T) {
	// Save emits version 1; Load and LoadWithMeta must both accept it,
	// the latter reporting no metadata.
	m := sampleModel(10, true)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	if v1[8] != 1 {
		t.Fatalf("Save wrote version %d, want 1", v1[8])
	}
	got, meta, err := LoadWithMeta(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if meta != nil {
		t.Errorf("v1 file produced metadata %+v", meta)
	}
	if !modelsEqual(m, got) {
		t.Error("v1 load changed the model")
	}
}

func TestLoadDiscardsMetaButVerifies(t *testing.T) {
	m := sampleModel(11, false)
	var buf bytes.Buffer
	if err := SaveWithMeta(&buf, m, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !modelsEqual(m, got) {
		t.Error("Load of v2 file changed the model")
	}
	// Corrupting a byte inside the meta trailer must still fail Load:
	// the checksum covers the trailer.
	data[len(data)-10] ^= 0x01
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Error("corrupt meta trailer accepted")
	}
}

func TestMetaFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.clapf")
	m := sampleModel(12, true)
	meta := sampleMeta()
	if err := SaveFileWithMeta(path, m, meta); err != nil {
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
	m := sampleModel(13, false)
	var buf bytes.Buffer
	if err := SaveWithMeta(&buf, m, &Meta{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The meta length field sits right before the trailer JSON + CRC.
	metaLenOff := len(data) - 4 /*crc*/ - 2 /*"{}"*/ - 4 /*len*/
	for i := 0; i < 4; i++ {
		data[metaLenOff+i] = 0xFF
	}
	if _, _, err := LoadWithMeta(bytes.NewReader(data)); err == nil {
		t.Error("huge meta length accepted")
	}
}

func TestLoadTruncatedEverywhere(t *testing.T) {
	m := sampleModel(8, true)
	var v1, v2, v3 bytes.Buffer
	if err := Save(&v1, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveWithMeta(&v2, m, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if err := SaveF32(&v3, mf.QuantizeF32(m), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	// Truncating at every prefix length must fail, never panic — in every
	// version, through the streaming loader and through Open.
	for name, full := range map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes(), "v3": v3.Bytes()} {
		for n := 0; n < len(full)-1; n += 37 {
			if _, err := Load(bytes.NewReader(full[:n])); err == nil {
				t.Fatalf("%s: Load accepted a truncation at %d bytes", name, n)
			}
			if _, _, err := openBytes(t, full[:n]); err == nil {
				t.Fatalf("%s: Open accepted a truncation at %d bytes", name, n)
			}
		}
	}
}
