package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"clapf/internal/mf"
)

func sampleF32(seed uint64, useBias bool) *mf.Factors32 {
	return mf.QuantizeF32(sampleModel(seed, useBias))
}

func f32Equal(a, b *mf.Factors32) bool {
	au, av, ab := a.RawParams32()
	bu, bv, bb := b.RawParams32()
	if a.NumUsers() != b.NumUsers() || a.NumItems() != b.NumItems() ||
		a.Dim() != b.Dim() || a.HasBias() != b.HasBias() {
		return false
	}
	eq := func(x, y []float32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eq(au, bu) && eq(av, bv) && eq(ab, bb)
}

// saveV3Bytes serializes f through SaveF32 into memory.
func saveV3Bytes(t *testing.T, f *mf.Factors32, meta *Meta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveF32(&buf, f, meta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveF32Layout pins the v3 geometry: page-aligned section start, the
// promised section length, a file that ends exactly at sectionOff +
// sectionLen, and a header checksum that covers everything before it.
func TestSaveF32Layout(t *testing.T) {
	for _, useBias := range []bool{true, false} {
		f := sampleF32(3, useBias)
		raw := saveV3Bytes(t, f, sampleMeta())
		if got := binary.LittleEndian.Uint32(raw[8:]); got != VersionF32 {
			t.Fatalf("version = %d, want %d", got, VersionF32)
		}
		flags := binary.LittleEndian.Uint32(raw[12:])
		if flags&flagF32 == 0 {
			t.Error("flagF32 not set")
		}
		if (flags&flagBias != 0) != useBias {
			t.Errorf("flagBias = %v, want %v", flags&flagBias != 0, useBias)
		}
		sectionOff := binary.LittleEndian.Uint64(raw[40:])
		sectionLen := binary.LittleEndian.Uint64(raw[48:])
		if sectionOff%sectionAlign != 0 {
			t.Errorf("sectionOff %d not %d-aligned", sectionOff, sectionAlign)
		}
		u, v, bb := f.RawParams32()
		if want := 4 * uint64(len(u)+len(v)+len(bb)); sectionLen != want {
			t.Errorf("sectionLen = %d, want %d", sectionLen, want)
		}
		if uint64(len(raw)) != sectionOff+sectionLen {
			t.Errorf("file is %d bytes, want sectionOff+sectionLen = %d", len(raw), sectionOff+sectionLen)
		}
		if got := crc32.ChecksumIEEE(raw[sectionOff:]); got != binary.LittleEndian.Uint32(raw[56:]) {
			t.Error("section CRC does not cover the section bytes")
		}
	}
}

// TestV3StreamingLoad reads a v3 buffer through the ordinary Load path
// and expects the factors widened into a float64 model plus the meta
// trailer — v3 files are transparent to every v1/v2 consumer.
func TestV3StreamingLoad(t *testing.T) {
	f := sampleF32(4, true)
	meta := sampleMeta()
	raw := saveV3Bytes(t, f, meta)
	m, gotMeta, err := LoadWithMeta(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !metasEqual(meta, gotMeta) {
		t.Errorf("meta round trip: got %+v, want %+v", gotMeta, meta)
	}
	if !f32Equal(f, mf.QuantizeF32(m)) {
		t.Error("widened model does not re-quantize to the saved factors")
	}
	for u := int32(0); u < int32(f.NumUsers()); u++ {
		for i := int32(0); i < int32(f.NumItems()); i++ {
			if m.Score(u, i) == 0 && f.Score(u, i) != 0 {
				t.Fatalf("score(%d,%d) lost", u, i)
			}
		}
	}
}

// TestLoadMappedRoundTrip saves through SaveF32File, maps the file back,
// and checks factors, meta, Verify, and Close — then that streaming Load
// of the same file agrees with the mapped view elementwise.
func TestLoadMappedRoundTrip(t *testing.T) {
	for _, useBias := range []bool{true, false} {
		f := sampleF32(5, useBias)
		path := filepath.Join(t.TempDir(), "model.f32.clapf")
		if err := SaveF32File(path, f, sampleMeta()); err != nil {
			t.Fatal(err)
		}
		mm, err := LoadMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := mm.Verify(); err != nil {
			t.Fatalf("Verify on a clean file: %v", err)
		}
		if !f32Equal(f, mm.Factors()) {
			t.Error("mapped factors differ from saved factors")
		}
		if !metasEqual(sampleMeta(), mm.meta) {
			t.Errorf("mapped meta = %+v", mm.meta)
		}
		m, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !f32Equal(mm.Factors(), mf.QuantizeF32(m)) {
			t.Error("streaming load disagrees with mapped load")
		}
		if err := mm.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mm.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if err := mm.Verify(); err == nil {
			t.Error("Verify after Close should fail")
		}
	}
}

// TestLoadMappedRejects exercises every corruption class the mapped
// loader must refuse with a clean error — never a panic, never a mapping
// of garbage.
func TestLoadMappedRejects(t *testing.T) {
	f := sampleF32(6, true)
	good := saveV3Bytes(t, f, sampleMeta())
	dir := t.TempDir()
	write := func(name string, raw []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	reject := func(name string, raw []byte) {
		t.Helper()
		mm, err := LoadMapped(write(name, raw))
		if err == nil {
			mm.Close()
			t.Fatalf("%s: LoadMapped accepted a corrupt file", name)
		}
		if _, _, err := Open(write(name, raw)); err == nil {
			t.Fatalf("%s: Open accepted a corrupt file", name)
		}
	}

	// Truncations at every structural boundary.
	sectionOff := binary.LittleEndian.Uint64(good[40:])
	for _, cut := range []int{0, 4, 12, 40, v3HeaderFixed - 1, int(sectionOff), len(good) - 1} {
		reject("trunc", good[:cut])
	}
	// Trailing garbage after the promised end.
	reject("trailing", append(append([]byte(nil), good...), 0xAB))
	// Flipped header byte (dims word) breaks the header CRC.
	bad := append([]byte(nil), good...)
	bad[17] ^= 0x01
	reject("hdrflip", bad)
	// Flipped section byte: the header parses, the mapping succeeds, but
	// Verify must catch it.
	bad = append([]byte(nil), good...)
	bad[len(bad)-3] ^= 0x01
	mm, err := LoadMapped(write("secflip", bad))
	if err != nil {
		t.Fatalf("section flip should map (header is intact): %v", err)
	}
	if err := mm.Verify(); err == nil {
		t.Error("Verify missed a flipped section byte")
	}
	mm.Close()
	// Open verifies before it hands anything out.
	if _, _, err := Open(write("secflip", bad)); err == nil {
		t.Error("Open served a flipped section byte")
	}
	// Misaligned (non-canonical) section offset with a recomputed header
	// CRC — internally consistent, geometrically wrong.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(bad[40:], sectionOff+8)
	metaLen := binary.LittleEndian.Uint32(bad[60:])
	hdrEnd := v3HeaderFixed + int(metaLen)
	binary.LittleEndian.PutUint32(bad[hdrEnd-4:], crc32.ChecksumIEEE(bad[:hdrEnd-4]))
	reject("misaligned", bad)
	// Version-2 file: mmap requires v3; Open parses it instead.
	var v2 bytes.Buffer
	if err := SaveWithMeta(&v2, sampleModel(6, true), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if mm, err := LoadMapped(write("v2", v2.Bytes())); err == nil {
		mm.Close()
		t.Fatal("LoadMapped accepted a v2 file")
	}
	if p, _, err := Open(write("v2", v2.Bytes())); err != nil {
		t.Fatalf("Open refused a clean v2 file: %v", err)
	} else if _, ok := p.(*mf.Model); !ok {
		t.Fatalf("Open made a %T of a v2 file", p)
	}

	// The streaming loader must reject the same corruptions.
	for _, raw := range [][]byte{good[:len(good)-1], func() []byte {
		b := append([]byte(nil), good...)
		b[len(b)-3] ^= 0x01
		return b
	}()} {
		if _, _, err := LoadWithMeta(bytes.NewReader(raw)); err == nil {
			t.Error("streaming load accepted a corrupt v3 buffer")
		}
	}
}

// TestV1V2StillLoad pins backward compatibility: the pre-v3 formats keep
// loading byte-identically after the v3 dispatch was added.
func TestV1V2StillLoad(t *testing.T) {
	m := sampleModel(7, true)
	var v1, v2 bytes.Buffer
	if err := Save(&v1, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveWithMeta(&v2, m, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes()} {
		got, _, err := LoadWithMeta(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !modelsEqual(m, got) {
			t.Errorf("%s: model changed through round trip", name)
		}
	}
}

// sameParams compares two parameter sets of any representation through
// the float64 view every scorer sees, bit for bit.
func sameParams(a, b mf.Params) bool {
	if a.NumUsers() != b.NumUsers() || a.NumItems() != b.NumItems() ||
		a.Dim() != b.Dim() || a.HasBias() != b.HasBias() {
		return false
	}
	eq := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for u := int32(0); u < int32(a.NumUsers()); u++ {
		if !eq(a.UserVector(u, nil), b.UserVector(u, nil)) {
			return false
		}
	}
	for i := int32(0); i < int32(a.NumItems()); i++ {
		if !eq(a.ItemVector(i, nil), b.ItemVector(i, nil)) ||
			math.Float64bits(a.Bias(i)) != math.Float64bits(b.Bias(i)) {
			return false
		}
	}
	return true
}

// TestOpenFileDecides pins the one front door: the version word alone
// picks the representation — v1/v2 parsed to a float64 model on the heap,
// v3 mapped as float32 — the metadata comes back on every path (never
// nil), and Export writes each representation back as the version Open
// made it from, so an export re-opens to the same thing.
func TestOpenFileDecides(t *testing.T) {
	m := sampleModel(14, true)
	dir := t.TempDir()
	v1, v2, v3 := filepath.Join(dir, "v1"), filepath.Join(dir, "v2"), filepath.Join(dir, "v3")
	if err := SaveFile(v1, m); err != nil {
		t.Fatal(err)
	}
	if err := SaveFileWithMeta(v2, m, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if err := SaveF32File(v3, mf.QuantizeF32(m), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path    string
		want    mf.Params
		meta    *Meta
		mapped  bool
		version byte // what Export must write for this representation
	}{
		{v1, m, &Meta{}, false, 2},
		{v2, m, sampleMeta(), false, 2},
		{v3, mf.QuantizeF32(m), sampleMeta(), true, 3},
	} {
		p, meta, err := Open(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if !sameParams(c.want, p) {
			t.Errorf("%s: parameters changed", c.path)
		}
		if meta == nil || !metasEqual(c.meta, meta) {
			t.Errorf("%s: meta = %+v, want %+v", c.path, meta, c.meta)
		}
		f32, isF32 := p.(*mf.Factors32)
		if isF32 != c.mapped || (isF32 && !f32.Mapped()) {
			t.Errorf("%s: opened as %T, want mapped float32 = %v", c.path, p, c.mapped)
		}

		// Export → Publish → Open is the promotion's round trip.
		tmp, out := c.path+".promote", c.path+".out"
		stamped := &Meta{FeedbackSeq: 41}
		if err := Export(tmp, p, stamped); err != nil {
			t.Fatal(err)
		}
		if err := Publish(tmp, out); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("%s: Publish left the temp export behind: %v", c.path, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if raw[8] != c.version {
			t.Errorf("%s: Export wrote version %d, want %d", c.path, raw[8], c.version)
		}
		again, meta, err := Open(out)
		if err != nil {
			t.Fatal(err)
		}
		if !sameParams(p, again) || meta.FeedbackSeq != 41 {
			t.Errorf("%s: export round trip changed the model or lost the watermark (%+v)", c.path, meta)
		}
	}

	// A representation no format holds is refused, and leaves nothing.
	tmp := filepath.Join(dir, "overlay.promote")
	if err := Export(tmp, mf.NewOverlay(m), nil); err == nil {
		t.Error("Export accepted an overlay")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("failed Export left %s behind: %v", tmp, err)
	}
}
