package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"clapf/internal/mf"
)

// The model file format. All integers are little-endian.
//
//	magic      [8]byte  "CLAPFMF\x00"
//	version    uint32   3
//	flags      uint32   bit 0: has item bias; bit 1: float32 section
//	users      uint64
//	items      uint64
//	dim        uint64
//	sectionOff uint64   file offset of the factor section (sectionAlign-aligned)
//	sectionLen uint64   width·(users·dim + items·dim [+ items]) bytes
//	sectionCRC uint32   CRC-32 (IEEE) of the factor section bytes
//	metaLen    uint32 + meta JSON bytes
//	headerCRC  uint32   CRC-32 (IEEE) of every byte above
//	padding    zero bytes up to sectionOff
//	section    U, V, B flat, in that order: float32 when bit 1 is set
//	           (width 4), float64 when it is clear (width 8)
//
// The file ends exactly at sectionOff+sectionLen. Integrity is split in
// two: headerCRC vouches for the geometry and metadata with a few hundred
// bytes of reads, and sectionCRC covers the factor payload, so a mapped
// reader can defer that scan (MappedModel.Verify). The section is
// page-aligned in the file, so mapping the file at offset 0 lands a
// float32 section on an alignment that permits casting the mapped bytes
// directly to []float32.
//
// The header is frozen. Files of versions 1 and 2 (float64 blocks under
// one trailing CRC) are refused with their version named.
const Version uint32 = 3

var magic = [8]byte{'C', 'L', 'A', 'P', 'F', 'M', 'F', 0}

const (
	flagBias uint32 = 1
	flagF32  uint32 = 2
)

// sectionAlign is the in-file alignment of the factor section. 4096
// matches the page size of every platform this repository targets, so the
// mapped section starts on a page (and in particular on a float32)
// boundary regardless of where in the header the metadata ends.
const sectionAlign = 4096

// headerFixed is the byte size of the header without the meta payload:
// magic(8) + version(4) + flags(4) + dims(24) + sectionOff(8) +
// sectionLen(8) + sectionCRC(4) + metaLen(4) + headerCRC(4).
const headerFixed = 68

// maxMetaLen bounds the metadata block so a corrupt length field cannot
// drive a huge allocation before the header checksum is verified.
const maxMetaLen = 1 << 20

// chunkLen is the unit of section I/O: the writer encodes and writes this
// many bytes at a time, and the reader reads them. The reader allocates
// maxAhead elements up front and at most doubles that as bytes arrive, so
// a header that promises more than the stream holds runs into EOF after
// allocating about twice what the stream held, not the promise.
const (
	chunkLen = 64 << 10
	maxAhead = 1 << 20
)

var le = binary.LittleEndian

// sectionOffset is where the section of a file with metaLen bytes of
// metadata starts: the first aligned offset past the header.
func sectionOffset(metaLen int) uint64 {
	return (headerFixed + uint64(metaLen) + sectionAlign - 1) / sectionAlign * sectionAlign
}

// save writes p in its own width: a float64 section for *mf.Model, a
// float32 one for *mf.Factors32. A nil meta is written as {}.
func save(w io.Writer, p mf.Params, meta *Meta) error {
	switch p := p.(type) {
	case *mf.Model:
		u, v, b := p.RawParams()
		return saveSection(w, p.Config(), meta, u, v, b)
	case *mf.Factors32:
		u, v, b := p.RawParams32()
		return saveSection(w, p.Config(), meta, u, v, b)
	}
	return fmt.Errorf("store: cannot save a %T", p)
}

func saveSection[T float32 | float64](w io.Writer, cfg mf.Config, meta *Meta, blocks ...[]T) error {
	if meta == nil {
		meta = &Meta{}
	}
	metaRaw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("store: encode meta: %w", err)
	}
	if len(metaRaw) > maxMetaLen {
		return fmt.Errorf("store: meta is %d bytes, limit %d", len(metaRaw), maxMetaLen)
	}
	width := uint64(unsafe.Sizeof(T(0)))
	flags := uint32(0)
	if width == 4 {
		flags |= flagF32
	}
	if cfg.UseBias {
		flags |= flagBias
	}
	var elems uint64
	for _, b := range blocks {
		elems += uint64(len(b))
	}
	// The section CRC sits in the header, before the section, so the
	// section is encoded twice: once into the checksum, once into w. That
	// keeps save single-pass over any io.Writer, not just a seekable file.
	var sectionCRC uint32
	_ = eachChunk(blocks, func(b []byte) error { // a checksum update cannot fail
		sectionCRC = crc32.Update(sectionCRC, crc32.IEEETable, b)
		return nil
	})
	off := sectionOffset(len(metaRaw))
	hdr := make([]byte, 0, off)
	hdr = le.AppendUint32(append(hdr, magic[:]...), Version)
	hdr = le.AppendUint32(hdr, flags)
	for _, x := range []uint64{uint64(cfg.NumUsers), uint64(cfg.NumItems), uint64(cfg.Dim), off, width * elems} {
		hdr = le.AppendUint64(hdr, x)
	}
	hdr = le.AppendUint32(hdr, sectionCRC)
	hdr = le.AppendUint32(hdr, uint32(len(metaRaw)))
	hdr = append(hdr, metaRaw...)
	hdr = le.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(hdr[:off]); err != nil {
		return fmt.Errorf("store: write header: %w", err)
	}
	if err := eachChunk(blocks, func(b []byte) error { _, err := w.Write(b); return err }); err != nil {
		return fmt.Errorf("store: write section: %w", err)
	}
	return nil
}

// eachChunk hands the little-endian bytes of blocks to fn, at most
// chunkLen at a time, out of one reused buffer.
func eachChunk[T float32 | float64](blocks [][]T, fn func([]byte) error) error {
	per := chunkLen / int(unsafe.Sizeof(T(0)))
	buf := make([]byte, 0, chunkLen)
	for _, xs := range blocks {
		for len(xs) > 0 {
			n := min(per, len(xs))
			buf = buf[:0]
			for _, x := range xs[:n] {
				if unsafe.Sizeof(x) == 4 {
					buf = le.AppendUint32(buf, math.Float32bits(float32(x)))
				} else {
					buf = le.AppendUint64(buf, math.Float64bits(float64(x)))
				}
			}
			if err := fn(buf); err != nil {
				return err
			}
			xs = xs[n:]
		}
	}
	return nil
}

// header is a parsed, checksummed and validated file header: everything
// the file says before its section.
type header struct {
	cfg        mf.Config
	width      int // bytes an element: 4 or 8
	sectionOff uint64
	sectionLen uint64
	sectionCRC uint32
	metaLen    int
	meta       *Meta
}

// sizes returns the element counts of the U, V and B blocks.
func (h *header) sizes() (nu, nv, nb int) {
	nu, nv = h.cfg.NumUsers*h.cfg.Dim, h.cfg.NumItems*h.cfg.Dim
	if h.cfg.UseBias {
		nb = h.cfg.NumItems
	}
	return nu, nv, nb
}

// readHeader is the one header parse. It rejects any header the writer
// cannot have produced — another version, unknown flags, implausible
// dimensions, a non-canonical section offset, a section length that
// disagrees with the dimensions and width — before a single section byte
// is read.
func readHeader(r io.Reader) (*header, error) {
	var fixed [headerFixed - 4]byte // up to and including metaLen
	if _, err := io.ReadFull(r, fixed[:12]); err != nil {
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	if [8]byte(fixed[:8]) != magic {
		return nil, fmt.Errorf("store: bad magic %q", fixed[:8])
	}
	if v := le.Uint32(fixed[8:]); v != Version {
		return nil, fmt.Errorf("store: unsupported format version %d (this build reads version %d)", v, Version)
	}
	if _, err := io.ReadFull(r, fixed[12:]); err != nil {
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	metaLen := le.Uint32(fixed[60:])
	if metaLen > maxMetaLen {
		return nil, fmt.Errorf("store: meta length %d exceeds limit %d", metaLen, maxMetaLen)
	}
	rest := make([]byte, metaLen+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("store: read meta: %w", err)
	}
	metaRaw := rest[:metaLen]
	want := crc32.Update(crc32.ChecksumIEEE(fixed[:]), crc32.IEEETable, metaRaw)
	if got := le.Uint32(rest[metaLen:]); got != want {
		return nil, fmt.Errorf("store: header checksum mismatch: file %08x, computed %08x", got, want)
	}

	flags := le.Uint32(fixed[12:])
	if flags&^(flagBias|flagF32) != 0 {
		return nil, fmt.Errorf("store: unknown flags %#x", flags)
	}
	dims := []uint64{le.Uint64(fixed[16:]), le.Uint64(fixed[24:]), le.Uint64(fixed[32:])}
	if err := validateDims(dims); err != nil {
		return nil, err
	}
	h := &header{
		cfg: mf.Config{
			NumUsers: int(dims[0]),
			NumItems: int(dims[1]),
			Dim:      int(dims[2]),
			UseBias:  flags&flagBias != 0,
		},
		width:      8,
		sectionOff: le.Uint64(fixed[40:]),
		sectionLen: le.Uint64(fixed[48:]),
		sectionCRC: le.Uint32(fixed[56:]),
		metaLen:    int(metaLen),
		meta:       &Meta{},
	}
	if flags&flagF32 != 0 {
		h.width = 4
	}
	if want := sectionOffset(h.metaLen); h.sectionOff != want {
		return nil, fmt.Errorf("store: section offset %d, want %d (aligned to %d)", h.sectionOff, want, sectionAlign)
	}
	nu, nv, nb := h.sizes()
	if want := uint64(h.width) * uint64(nu+nv+nb); h.sectionLen != want {
		return nil, fmt.Errorf("store: section length %d disagrees with dims (want %d)", h.sectionLen, want)
	}
	if err := json.Unmarshal(metaRaw, h.meta); err != nil {
		return nil, fmt.Errorf("store: decode meta: %w", err)
	}
	return h, nil
}

// readSection reads the rest of a stream whose header h was just parsed:
// the padding, then the section — growing its allocation only as bytes
// arrive (see chunkLen) — through the section checksum, widened to a
// float64 model.
func readSection(r io.Reader, h *header) (*mf.Model, error) {
	if _, err := io.CopyN(io.Discard, r, int64(h.sectionOff)-headerFixed-int64(h.metaLen)); err != nil {
		return nil, fmt.Errorf("store: skip section padding: %w", err)
	}
	nu, nv, nb := h.sizes()
	n := nu + nv + nb
	xs := make([]float64, min(n, maxAhead))
	buf := make([]byte, chunkLen)
	var crc uint32
	for done := 0; done < n; {
		dst := xs[done:min(done+chunkLen/h.width, len(xs))]
		b := buf[:h.width*len(dst)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("store: read factor section: %w", err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
		if h.width == 4 {
			for i := range dst {
				dst[i] = float64(f32FromLE(b[4*i:]))
			}
		} else {
			for i := range dst {
				dst[i] = math.Float64frombits(le.Uint64(b[8*i:]))
			}
		}
		if done += len(dst); done == len(xs) && done < n {
			xs = append(xs, make([]float64, min(done, n-done))...)
		}
	}
	if crc != h.sectionCRC {
		return nil, fmt.Errorf("store: section checksum mismatch: file %08x, computed %08x", h.sectionCRC, crc)
	}
	return mf.FromRaw(h.cfg, xs[:nu], xs[nu:nu+nv], xs[nu+nv:])
}

// validateDims rejects dimension words no real model could have written,
// so a corrupt header cannot drive a huge allocation.
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

// f32FromLE decodes one little-endian float32 from b.
func f32FromLE(b []byte) float32 {
	return math.Float32frombits(le.Uint32(b))
}
