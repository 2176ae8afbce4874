package store

import (
	"bytes"
	"testing"

	"clapf/internal/mf"
)

// FuzzLoad throws arbitrary bytes at both readers: the streaming loader
// and, through a temp file, Open. Neither may panic or over-allocate. The
// loader either returns a model whose re-serialization is consistent, or
// an error; whatever Open accepts the loader accepts too (Open is the
// stricter: it also refuses trailing bytes on a v3 file), as the same
// model. The seed corpus covers the interesting
// shapes: valid v1, v2, and v3 files, truncated files, and files whose
// checksums were flipped.
func FuzzLoad(f *testing.F) {
	m := sampleModel(1, true)
	var v1 bytes.Buffer
	if err := Save(&v1, m); err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := SaveWithMeta(&v2, m, sampleMeta()); err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), v1.Bytes()...)
	flipped[len(flipped)-1] ^= 0xFF

	var v3 bytes.Buffer
	if err := SaveF32(&v3, mf.QuantizeF32(m), sampleMeta()); err != nil {
		f.Fatal(err)
	}
	v3flip := append([]byte(nil), v3.Bytes()...)
	v3flip[len(v3flip)-1] ^= 0xFF // section byte: section CRC must catch it
	v3hdr := append([]byte(nil), v3.Bytes()...)
	v3hdr[9] ^= 0x01 // version word: dispatch must reject cleanly

	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v1.Bytes()[:v1.Len()/2])
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(v3.Bytes())
	f.Add(v3.Bytes()[:v3HeaderFixed/2])
	f.Add(v3.Bytes()[:v3.Len()-7])
	f.Add(v3flip)
	f.Add(v3hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		opened, openedMeta, openErr := openBytes(t, data)
		got, meta, err := LoadWithMeta(bytes.NewReader(data))
		if openErr == nil {
			if err != nil {
				t.Fatalf("Open accepted what LoadWithMeta rejects: %v", err)
			}
			if openedMeta == nil || !sameParams(got, opened) {
				t.Fatal("Open and LoadWithMeta disagree on an accepted file")
			}
		}
		if err != nil {
			return
		}
		// Whatever parsed must survive a round trip bit-for-bit.
		var buf bytes.Buffer
		if meta == nil {
			err = Save(&buf, got)
		} else {
			err = SaveWithMeta(&buf, got, meta)
		}
		if err != nil {
			t.Fatalf("re-save of fuzz-accepted model failed: %v", err)
		}
		again, _, err := LoadWithMeta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reload of re-saved model failed: %v", err)
		}
		if !modelsEqual(got, again) {
			t.Fatal("fuzz round trip changed the model")
		}
	})
}
