package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"

	"clapf/internal/mf"
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian — the file's byte order. On such hosts (every platform
// this repository targets) the mapped section casts directly to []float32;
// otherwise mapFile falls back to a decode copy.
var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// mapping owns one mmap region. It deliberately references neither the
// MappedModel nor the Factors32 built over it: the Factors32 pins the
// mapping through Retain, and keeping this struct leaf-like means the
// finalizer below sits on an object outside any reference cycle, so the
// runtime is guaranteed to run it once every reader of the mapped slices
// is unreachable — generation retirement without a coordinated munmap.
type mapping struct {
	data   []byte
	unmap  func() error
	closed atomic.Bool
}

func (mp *mapping) close() error {
	if !mp.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(mp, nil)
	return mp.unmap()
}

// MappedModel is a float32 model file paged in by Open or LoadMapped: a
// float32 parameter set whose backing storage is the kernel's page cache,
// not the Go heap. Loading costs O(header) — the factor section is
// mapped, not read — so serve start-up and hot reload of a multi-gigabyte
// model are near-instant and its clean pages are evictable under memory
// pressure.
//
// Lifecycle: the Factors32 returned by Factors pins the mapping for as
// long as any live liveState generation (or any other reader) references
// it; when the last reference dies, a finalizer releases the region. Close
// releases it eagerly and is only safe once no goroutine can still score
// through Factors — long-running servers let the finalizer do generation
// retirement instead.
type MappedModel struct {
	f          *mf.Factors32
	meta       *Meta
	mp         *mapping
	sectionOff uint64
	sectionCRC uint32
}

// LoadMapped opens a float32 model file and maps its factor section.
// The header (geometry, meta, header CRC) is read and verified eagerly;
// the factor payload is not touched. Call Verify to checksum the section
// before trusting the factors. Serving goes through Open, which does both
// and hands back the factors; LoadMapped is for callers that want the
// handle — header-only inspection, or an eager Close. A float64 file is
// refused: it has no float32 section to map.
func LoadMapped(path string) (*MappedModel, error) {
	file, _, h, err := openHeader(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	if h.width != 4 {
		return nil, fmt.Errorf("store: cannot map the float64 file %s (only float32 sections are mapped; use Load)", path)
	}
	return mapFile(file, h)
}

// mapFile maps the float32 file whose header openHeader parsed and checked.
func mapFile(file *os.File, h *header) (*MappedModel, error) {
	size := int64(h.sectionOff + h.sectionLen)
	data, unmap, err := mmapFile(file, size)
	if err != nil {
		return nil, fmt.Errorf("store: mmap %s: %w", file.Name(), err)
	}
	mp := &mapping{data: data, unmap: unmap}
	runtime.SetFinalizer(mp, func(mp *mapping) { _ = mp.close() })

	section := data[h.sectionOff:size]
	floats, ok := castF32(section)
	if !ok {
		// Big-endian host or an allocator that broke 4-byte alignment on
		// the fallback buffer: decode-copy. Correct everywhere, zero-copy
		// nowhere.
		floats = make([]float32, len(section)/4)
		for i := range floats {
			floats[i] = f32FromLE(section[4*i:])
		}
	}
	nu, nv, _ := h.sizes()
	u := floats[:nu:nu]
	v := floats[nu : nu+nv : nu+nv]
	var b []float32
	if h.cfg.UseBias {
		b = floats[nu+nv:]
	}
	f, err := mf.FromRaw32(h.cfg, u, v, b)
	if err != nil {
		mp.close()
		return nil, err
	}
	f.Retain(mp)
	return &MappedModel{f: f, meta: h.meta, mp: mp, sectionOff: h.sectionOff, sectionCRC: h.sectionCRC}, nil
}

// Factors returns the float32 parameter set backed by the mapping. The
// returned value stays valid after the MappedModel itself is dropped — it
// pins the mapped pages until it is itself unreachable.
func (mm *MappedModel) Factors() *mf.Factors32 { return mm.f }

// Verify checksums the mapped factor section against the header's section
// CRC. This is the one deliberately O(bytes) operation on the mapped path
// — callers that are about to serve from the factors (clapf-serve startup,
// hot reload) pay one sequential scan at page-cache bandwidth; callers
// that only inspect the header skip it.
func (mm *MappedModel) Verify() error {
	if mm.mp.closed.Load() {
		return fmt.Errorf("store: Verify after Close")
	}
	section := mm.mp.data[mm.sectionOff:]
	if got := crc32.ChecksumIEEE(section); got != mm.sectionCRC {
		return fmt.Errorf("store: section checksum mismatch: file %08x, computed %08x", mm.sectionCRC, got)
	}
	return nil
}

// Close releases the mapping immediately. It is safe to call more than
// once, but never while any goroutine can still reach the Factors32 —
// reads through released pages fault. Servers should simply drop their
// references and let the finalizer retire the generation.
func (mm *MappedModel) Close() error { return mm.mp.close() }

// castF32 reinterprets little-endian float32 bytes as a []float32 without
// copying. Fails (ok == false) on big-endian hosts or when the base
// address is not 4-byte aligned; the page-aligned section offset makes the
// mmap path always aligned.
func castF32(b []byte) (xs []float32, ok bool) {
	if len(b) == 0 {
		return nil, true
	}
	if !hostLittleEndian || uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4), true
}
