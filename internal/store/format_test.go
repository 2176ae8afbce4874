package store

import (
	"bytes"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
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

// TestLayout pins the geometry at both widths: the version word, the
// width and bias flags, a page-aligned section start, the promised section
// length, a file that ends exactly at sectionOff + sectionLen, and a
// section checksum that covers the section bytes.
func TestLayout(t *testing.T) {
	for _, width := range widths {
		for _, useBias := range []bool{true, false} {
			p := asWidth(sampleModel(3, useBias), width)
			raw := saveBytes(t, p, sampleMeta())
			if got := le.Uint32(raw[8:]); got != Version {
				t.Fatalf("version = %d, want %d", got, Version)
			}
			flags := le.Uint32(raw[12:])
			if (flags&flagF32 != 0) != (width == 4) {
				t.Errorf("width %d: flagF32 = %v", width, flags&flagF32 != 0)
			}
			if (flags&flagBias != 0) != useBias {
				t.Errorf("flagBias = %v, want %v", flags&flagBias != 0, useBias)
			}
			sectionOff := le.Uint64(raw[40:])
			sectionLen := le.Uint64(raw[48:])
			if sectionOff%sectionAlign != 0 {
				t.Errorf("sectionOff %d not %d-aligned", sectionOff, sectionAlign)
			}
			elems := p.NumUsers()*p.Dim() + p.NumItems()*p.Dim()
			if useBias {
				elems += p.NumItems()
			}
			if want := uint64(width * elems); sectionLen != want {
				t.Errorf("width %d: sectionLen = %d, want %d", width, sectionLen, want)
			}
			if uint64(len(raw)) != sectionOff+sectionLen {
				t.Errorf("file is %d bytes, want sectionOff+sectionLen = %d", len(raw), sectionOff+sectionLen)
			}
			if got := crc32.ChecksumIEEE(raw[sectionOff:]); got != le.Uint32(raw[56:]) {
				t.Error("section CRC does not cover the section bytes")
			}
		}
	}
}

// TestV3StreamingLoad reads a float32 file through the streaming loader
// and expects the factors widened into a float64 model plus the metadata:
// float32 files are transparent to every float64 consumer.
func TestV3StreamingLoad(t *testing.T) {
	f := sampleF32(4, true)
	meta := sampleMeta()
	raw := saveBytes(t, f, meta)
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

// TestLoadMappedRejects exercises every corruption class the file
// readers must refuse with a clean error — never a panic, never a mapping
// of garbage — at both widths. A float64 file has no section to map, so
// LoadMapped refuses even a clean one.
func TestLoadMappedRejects(t *testing.T) {
	for _, width := range widths {
		good := saveBytes(t, asWidth(sampleModel(6, true), width), sampleMeta())
		reject := func(name string, raw []byte) {
			t.Helper()
			path := writeTemp(t, raw)
			if mm, err := LoadMapped(path); err == nil {
				err = mm.Verify()
				mm.Close()
				if err == nil {
					t.Fatalf("width %d: %s: LoadMapped and Verify accepted a corrupt file", width, name)
				}
			}
			if _, _, err := Open(path); err == nil {
				t.Fatalf("width %d: %s: Open accepted a corrupt file", width, name)
			}
		}

		// Truncations at every structural boundary.
		sectionOff := le.Uint64(good[40:])
		for _, cut := range []int{0, 4, 12, 40, headerFixed - 1, int(sectionOff), len(good) - 1} {
			reject("trunc", good[:cut])
		}
		// Trailing garbage after the promised end.
		reject("trailing", append(append([]byte(nil), good...), 0xAB))
		// Flipped header byte (dims word) breaks the header CRC.
		bad := append([]byte(nil), good...)
		bad[17] ^= 0x01
		reject("hdrflip", bad)
		// Flipped section byte: the header parses, a float32 file maps, but
		// Verify must catch it; Open verifies before it hands anything out.
		bad = append([]byte(nil), good...)
		bad[len(bad)-3] ^= 0x01
		reject("secflip", bad)
		if width == 4 {
			mm, err := LoadMapped(writeTemp(t, bad))
			if err != nil {
				t.Fatalf("section flip should map (header is intact): %v", err)
			}
			if err := mm.Verify(); err == nil {
				t.Error("Verify missed a flipped section byte")
			}
			mm.Close()
		}
		// Misaligned (non-canonical) section offset with a recomputed header
		// CRC — internally consistent, geometrically wrong.
		bad = append([]byte(nil), good...)
		le.PutUint64(bad[40:], sectionOff+8)
		rehash(bad)
		reject("misaligned", bad)
		// A section length that disagrees with the dims and width: the
		// other width's length, under a recomputed header CRC.
		bad = append([]byte(nil), good...)
		le.PutUint64(bad[48:], le.Uint64(good[48:])/uint64(width)*uint64(12-width))
		rehash(bad)
		reject("sectionlen", bad)

		// The streaming loader must reject the same corruptions.
		for _, raw := range [][]byte{good[:len(good)-1], bad} {
			if _, _, err := LoadWithMeta(bytes.NewReader(raw)); err == nil {
				t.Errorf("width %d: streaming load accepted a corrupt file", width)
			}
		}
	}
	// A clean float64 file: LoadMapped refuses it, Open parses it.
	path := writeTemp(t, saveBytes(t, sampleModel(6, true), sampleMeta()))
	if mm, err := LoadMapped(path); err == nil {
		mm.Close()
		t.Fatal("LoadMapped accepted a float64 file")
	}
	if p, _, err := Open(path); err != nil {
		t.Fatalf("Open refused a clean float64 file: %v", err)
	} else if _, ok := p.(*mf.Model); !ok {
		t.Fatalf("Open made a %T of a float64 file", p)
	}
}

// TestOldF32FileStillLoads reads a float32 file written before float64
// files shared its layout (testdata/f32-model.clapf: sampleModel(15, true)
// quantized, with sampleMeta) through every reader, to the same bits and
// metadata, and pins that today's writer produces it byte for byte.
func TestOldF32FileStillLoads(t *testing.T) {
	const path = "testdata/f32-model.clapf"
	want := sampleF32(15, true)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, saveBytes(t, want, sampleMeta())) {
		t.Error("the writer no longer reproduces the committed float32 file")
	}
	p, meta, err := Open(path)
	if err != nil || !sameParams(want, p) || !metasEqual(sampleMeta(), meta) {
		t.Errorf("Open: %T, meta %+v, err %v", p, meta, err)
	}
	mm, err := LoadMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if err := mm.Verify(); err != nil || !f32Equal(want, mm.Factors()) || !metasEqual(sampleMeta(), mm.meta) {
		t.Errorf("LoadMapped: factors or meta changed (%v)", err)
	}
	m, meta, err := LoadWithMeta(bytes.NewReader(raw))
	if err != nil || !sameParams(want, m) || !metasEqual(sampleMeta(), meta) {
		t.Errorf("LoadWithMeta: factors or meta changed (%v)", err)
	}
}

// forgedHeader returns a file of about 4 KB whose header, checksum and all,
// claims a 1 GiB section of width-byte elements.
func forgedHeader(t testing.TB, width int) []byte {
	raw := saveBytes(t, asWidth(sampleModel(16, false), width), nil)
	le.PutUint64(raw[16:], 1<<13)               // users
	le.PutUint64(raw[24:], 1<<13)               // items
	le.PutUint64(raw[32:], uint64(1<<16/width)) // dim
	le.PutUint64(raw[48:], 1<<30)               // section length
	rehash(raw)
	return raw
}

// TestLoadBoundsAllocation: a stream that promises a 1 GiB section and
// holds 4 KB is refused after allocating a bounded amount, not the
// promise, and a checkpoint directory whose newest generation is one falls
// back to an older good generation.
func TestLoadBoundsAllocation(t *testing.T) {
	for _, width := range widths {
		raw := forgedHeader(t, width)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := LoadWithMeta(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("width %d: a 4 KB stream promising 1 GiB loaded", width)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
			t.Errorf("width %d: refusing it allocated %d MiB", width, d>>20)
		}

		dir := t.TempDir()
		m := sampleModel(18, false)
		good, err := WriteCheckpoint(dir, m, &Meta{Step: 100}, 0)
		if err != nil {
			t.Fatal(err)
		}
		forged := CheckpointPath(dir, 200)
		if err := os.WriteFile(forged, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, path, skipped, err := LatestCheckpoint(dir)
		if err != nil || path != good || len(skipped) != 1 || skipped[0] != forged || !modelsEqual(m, got) {
			t.Errorf("width %d: LatestCheckpoint = %s (skipped %v, err %v), want %s", width, path, skipped, err, good)
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

// TestOpenFileDecides pins the one front door: the file's width alone
// picks the representation — float64 parsed to a model on the heap,
// float32 mapped — the metadata comes back on every path (never nil), and
// Export writes each representation back at the width Open made it from,
// so an export re-opens to the same thing.
func TestOpenFileDecides(t *testing.T) {
	m := sampleModel(14, true)
	dir := t.TempDir()
	bare, f64, f32 := filepath.Join(dir, "bare"), filepath.Join(dir, "f64"), filepath.Join(dir, "f32")
	if err := SaveFile(bare, m); err != nil {
		t.Fatal(err)
	}
	if err := Export(f64, m, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if err := SaveF32File(f32, mf.QuantizeF32(m), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path   string
		want   mf.Params
		meta   *Meta
		mapped bool
	}{
		{bare, m, &Meta{}, false},
		{f64, m, sampleMeta(), false},
		{f32, mf.QuantizeF32(m), sampleMeta(), true},
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
		again, meta, err := Open(out)
		if err != nil {
			t.Fatal(err)
		}
		if again.ElemBytes() != p.ElemBytes() || !sameParams(p, again) || meta.FeedbackSeq != 41 {
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
