package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"clapf/internal/mf"
)

// Format version 3: the mmap-friendly float32 flat layout.
//
//	magic      [8]byte  "CLAPFMF\x00"
//	version    uint32   3
//	flags      uint32   bit 0: has item bias; bit 1: float32 section (required)
//	users      uint64
//	items      uint64
//	dim        uint64
//	sectionOff uint64   file offset of the factor section (sectionAlign-aligned)
//	sectionLen uint64   4·(users·dim + items·dim [+ items]) bytes
//	sectionCRC uint32   CRC-32 (IEEE) of the factor section bytes
//	metaLen    uint32 + meta JSON bytes
//	headerCRC  uint32   CRC-32 (IEEE) of every byte above
//	padding    zero bytes up to sectionOff
//	section    U, V, B as little-endian float32, flat, in that order
//
// The file ends exactly at sectionOff+sectionLen. Unlike v1/v2, whose
// single trailing CRC forces a full sequential parse, v3 splits integrity
// in two: headerCRC vouches for the geometry with a few hundred bytes of
// reads, and sectionCRC covers the factor payload separately so a mapped
// loader can defer (or batch) that scan. The section is page-aligned in
// the file, so mapping the file at offset 0 lands the factors on an
// alignment that permits casting the mapped bytes directly to []float32.
const VersionF32 uint32 = 3

// flagF32 marks the parameter section as float32. Required in v3.
const flagF32 uint32 = 2

// sectionAlign is the in-file alignment of the factor section. 4096
// matches the page size of every platform this repository targets, so the
// mapped section starts on a page (and in particular on a float32)
// boundary regardless of where in the header the metadata ends.
const sectionAlign = 4096

// v3HeaderFixed is the byte size of the v3 header without the variable
// meta payload: magic(8) + version(4) + flags(4) + dims(24) +
// sectionOff(8) + sectionLen(8) + sectionCRC(4) + metaLen(4) +
// headerCRC(4).
const v3HeaderFixed = 68

// SaveF32 writes a float32 parameter set to w in version-3 format. Most
// callers want SaveF32File: the format's alignment only buys anything on a
// real file, and the atomic rename path is how exports reach serving.
func SaveF32(w io.Writer, f *mf.Factors32, meta *Meta) error {
	if meta == nil {
		meta = &Meta{}
	}
	metaRaw, err := encodeMeta(meta)
	if err != nil {
		return err
	}

	u, v, b := f.RawParams32()
	sectionLen := 4 * uint64(len(u)+len(v)+len(b))
	headerEnd := uint64(v3HeaderFixed + len(metaRaw))
	sectionOff := (headerEnd + sectionAlign - 1) / sectionAlign * sectionAlign

	// The section CRC sits in the header, before the section itself, so
	// the payload is streamed twice: once through the checksum, once to w.
	// Export is not a hot path; keeping the writer single-pass means
	// SaveF32 works against any io.Writer, not just a seekable file.
	secCRC := crc32.NewIEEE()
	for _, block := range [][]float32{u, v, b} {
		if err := writeFloats32(secCRC, block); err != nil {
			return err
		}
	}

	hdrCRC := crc32.NewIEEE()
	mw := io.MultiWriter(w, hdrCRC)
	if _, err := mw.Write(magic[:]); err != nil {
		return fmt.Errorf("store: write magic: %w", err)
	}
	flags := flagF32
	if f.HasBias() {
		flags |= flagBias
	}
	if err := writeU32(mw, VersionF32); err != nil {
		return err
	}
	if err := writeU32(mw, flags); err != nil {
		return err
	}
	for _, x := range []uint64{uint64(f.NumUsers()), uint64(f.NumItems()), uint64(f.Dim()),
		sectionOff, sectionLen} {
		if err := writeU64(mw, x); err != nil {
			return err
		}
	}
	if err := writeU32(mw, secCRC.Sum32()); err != nil {
		return err
	}
	if err := writeU32(mw, uint32(len(metaRaw))); err != nil {
		return err
	}
	if _, err := mw.Write(metaRaw); err != nil {
		return fmt.Errorf("store: write meta: %w", err)
	}
	if err := writeU32(w, hdrCRC.Sum32()); err != nil {
		return err
	}
	if pad := sectionOff - headerEnd; pad > 0 {
		if _, err := w.Write(make([]byte, pad)); err != nil {
			return fmt.Errorf("store: write padding: %w", err)
		}
	}
	for _, block := range [][]float32{u, v, b} {
		if err := writeFloats32(w, block); err != nil {
			return err
		}
	}
	return nil
}

// SaveF32File writes a float32 parameter set to path in version-3 format
// with the same atomic, durable temp-file + fsync + rename discipline as
// SaveFile.
func SaveF32File(path string, f *mf.Factors32, meta *Meta) error {
	return writeFile(path, func(w io.Writer) error { return SaveF32(w, f, meta) })
}

// v3Header is the parsed and validated v3 geometry.
type v3Header struct {
	cfg        mf.Config
	sectionOff uint64
	sectionLen uint64
	sectionCRC uint32
	metaRaw    []byte
	nu, nv, nb int // element counts of the U, V, B blocks
}

// readV3Rest parses a v3 header from the point just after the shared
// header words. Validation rejects any geometry the format cannot have
// produced — wrong flag, misaligned or non-canonical section offset,
// section length that disagrees with the dims — before a single factor
// byte is read.
func readV3Rest(r *crcReader, hd header) (*v3Header, error) {
	var h v3Header
	var err error
	if h.sectionOff, err = readU64(r.tee); err != nil {
		return nil, err
	}
	if h.sectionLen, err = readU64(r.tee); err != nil {
		return nil, err
	}
	if h.sectionCRC, err = readU32(r.tee); err != nil {
		return nil, err
	}
	if h.metaRaw, err = readMetaRaw(r.tee); err != nil {
		return nil, err
	}
	wantSum := r.crc.Sum32()
	gotSum, err := readU32(r.raw)
	if err != nil {
		return nil, fmt.Errorf("store: read header checksum: %w", err)
	}
	if gotSum != wantSum {
		return nil, fmt.Errorf("store: header checksum mismatch: file %08x, computed %08x", gotSum, wantSum)
	}

	if hd.flags&flagF32 == 0 {
		return nil, fmt.Errorf("store: version-3 file without float32 section flag")
	}
	h.cfg = mf.Config{
		NumUsers: int(hd.dims[0]),
		NumItems: int(hd.dims[1]),
		Dim:      int(hd.dims[2]),
		UseBias:  hd.flags&flagBias != 0,
	}
	h.nu = h.cfg.NumUsers * h.cfg.Dim
	h.nv = h.cfg.NumItems * h.cfg.Dim
	if h.cfg.UseBias {
		h.nb = h.cfg.NumItems
	}
	headerEnd := uint64(v3HeaderFixed + len(h.metaRaw))
	wantOff := (headerEnd + sectionAlign - 1) / sectionAlign * sectionAlign
	if h.sectionOff != wantOff {
		return nil, fmt.Errorf("store: section offset %d, want %d (aligned to %d)", h.sectionOff, wantOff, sectionAlign)
	}
	if want := 4 * uint64(h.nu+h.nv+h.nb); h.sectionLen != want {
		return nil, fmt.Errorf("store: section length %d disagrees with dims (want %d)", h.sectionLen, want)
	}
	return &h, nil
}

// loadV3Stream is the sequential-reader v3 path of LoadWithMeta: skip the
// padding, stream the section through its checksum, and widen the factors
// into a float64 Model so every v1/v2 consumer (training resume, eval)
// reads v3 files transparently. The zero-copy path is Open.
func loadV3Stream(r *crcReader, hd header) (*mf.Model, *Meta, error) {
	h, err := readV3Rest(r, hd)
	if err != nil {
		return nil, nil, err
	}
	pad := int64(h.sectionOff) - int64(v3HeaderFixed+len(h.metaRaw))
	if _, err := io.CopyN(io.Discard, r.raw, pad); err != nil {
		return nil, nil, fmt.Errorf("store: skip section padding: %w", err)
	}
	section := make([]byte, h.sectionLen)
	if _, err := io.ReadFull(r.raw, section); err != nil {
		return nil, nil, fmt.Errorf("store: read factor section: %w", err)
	}
	if got := crc32.ChecksumIEEE(section); got != h.sectionCRC {
		return nil, nil, fmt.Errorf("store: section checksum mismatch: file %08x, computed %08x", h.sectionCRC, got)
	}
	widen := func(off, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			bits := binary.LittleEndian.Uint32(section[4*(off+i):])
			xs[i] = float64(math.Float32frombits(bits))
		}
		return xs
	}
	u := widen(0, h.nu)
	v := widen(h.nu, h.nv)
	var b []float64
	if h.cfg.UseBias {
		b = widen(h.nu+h.nv, h.nb)
	}
	m, err := mf.FromRaw(h.cfg, u, v, b)
	if err != nil {
		return nil, nil, err
	}
	meta, err := decodeMeta(h.metaRaw)
	if err != nil {
		return nil, nil, err
	}
	return m, meta, nil
}

// f32FromLE decodes one little-endian float32 from b.
func f32FromLE(b []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

func writeFloats32(w io.Writer, xs []float32) error {
	var buf [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}
