package store

import (
	"bytes"
	"testing"
)

// FuzzLoad throws arbitrary bytes at every reader: the streaming loader
// and, through a temp file, Open and LoadMapped. None may panic or
// over-allocate. The loader either returns a model whose re-serialization
// is consistent, or an error; whatever Open or LoadMapped accepts the
// loader accepts too (the file readers are the stricter: they also refuse
// trailing bytes), as the same model. The seed corpus covers the
// interesting shapes at both widths: valid files, truncated files, files
// whose checksums were flipped, a header that promises a 1 GiB section
// over 4 KB, and files of the retired versions 1 and 2.
func FuzzLoad(f *testing.F) {
	m := sampleModel(1, true)
	for _, width := range widths {
		full := saveBytes(f, asWidth(m, width), sampleMeta())
		flipped := append([]byte(nil), full...)
		flipped[len(flipped)-1] ^= 0xFF // section byte: section CRC must catch it
		f.Add(full)
		f.Add(full[:headerFixed/2])
		f.Add(full[:len(full)-7])
		f.Add(flipped)
		f.Add(forgedHeader(f, width))
	}
	hdrflip := saveBytes(f, m, nil)
	hdrflip[9] ^= 0x01 // version word: must be refused cleanly
	f.Add(hdrflip)
	f.Add([]byte{})
	f.Add(oldFormat(1, m))
	f.Add(oldFormat(2, m))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeTemp(t, data)
		opened, openedMeta, openErr := Open(path)
		got, meta, err := LoadWithMeta(bytes.NewReader(data))
		if openErr == nil {
			if err != nil {
				t.Fatalf("Open accepted what LoadWithMeta rejects: %v", err)
			}
			if openedMeta == nil || !sameParams(got, opened) {
				t.Fatal("Open and LoadWithMeta disagree on an accepted file")
			}
		}
		if mm, mapErr := LoadMapped(path); mapErr == nil {
			if mm.Verify() == nil && (err != nil || !sameParams(got, mm.Factors())) {
				t.Fatal("LoadMapped and LoadWithMeta disagree on an accepted file")
			}
			mm.Close()
		}
		if err != nil {
			return
		}
		// Whatever parsed must survive a round trip bit-for-bit.
		var buf bytes.Buffer
		if err := save(&buf, got, meta); err != nil {
			t.Fatalf("re-save of fuzz-accepted model failed: %v", err)
		}
		again, _, err := LoadWithMeta(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reload of re-saved model failed: %v", err)
		}
		if !sameParams(got, again) {
			t.Fatal("fuzz round trip changed the model")
		}
	})
}
