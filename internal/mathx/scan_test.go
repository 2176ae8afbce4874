package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// sameScan fails unless ScanF64F32 — the AVX kernel where the host has one
// — wrote exactly what scanGo, its specification, writes. Non-finite
// results are compared by kind, not NaN payload: which operand's payload
// survives is the one thing the instruction set leaves to operand order.
func sameScan(t *testing.T, label string, u []float64, v, b []float32, n int, outOff int) {
	t.Helper()
	// Both outputs start at the same odd-or-even element offset of a
	// larger buffer, with a canary either side.
	got, want := make([]float64, outOff+n+1), make([]float64, outOff+n+1)
	const canary = -12345.5
	Fill(got, canary)
	Fill(want, canary)
	ScanF64F32(u, v, b, got[outOff:outOff+n])
	scanGo(u, v, b, want[outOff:outOff+n])
	sameBits(t, label, got, want, outOff)
}

// sameBits compares two scan outputs, canaries included, by Float64bits.
func sameBits(t *testing.T, label string, got, want []float64, outOff int) {
	t.Helper()
	for j := range want {
		g, w := got[j], want[j]
		if math.IsNaN(w) && math.IsNaN(g) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: out[%d] = %v (%#x), portable loop %v (%#x)",
				label, j-outOff, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// scanSpecials are the values a finite random catalog never holds.
var scanSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// TestScanF64F32MatchesPortable is the kernel's bit-identity table: every
// d from 1 to 67 (every residue mod 4, and d < 4 where only the gathering
// tail runs), every row count from 0 to 9 (so 0..3 rows are left to the Go
// body beside no pass, one pass and two) and around the engine's 512-item
// tile, with and without bias, v, b and out starting at odd element
// offsets (a mapped section is only 4-byte aligned per row), over random
// rows and — for n <= 5, so that each of the four rows of a pass and a
// handed-off row are hit — ±0, subnormals, ±Inf, NaN and MaxFloat32 at
// every position of the catalog, the query and the bias: the four rows of
// a pass share one reduce, and a special in one must not reach its
// neighbours' lanes.
func TestScanF64F32MatchesPortable(t *testing.T) {
	t.Logf("AVX kernel in use: %v", useAVX)
	rng := NewRNG(21)
	for d := 1; d <= 67; d++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 511, 512, 513} {
			for _, off := range []int{0, 1, 3} {
				u := make([]float64, d)
				for k := range u {
					u[k] = rng.NormFloat64()
				}
				v := randF32(rng, off+n*d)[off:]
				b := randF32(rng, off+n)[off:]
				sameScan(t, "random", u, v, b, n, off)
				sameScan(t, "random, no bias", u, v, nil, n, off)
				if n == 0 || n > 5 || (off == 3 && d > 20) {
					continue
				}
				for k := range v {
					for _, x := range scanSpecials {
						old := v[k]
						v[k] = x
						sameScan(t, "special row element", u, v, b, n, off)
						v[k] = old
					}
				}
				for k := range u {
					for _, x := range scanSpecials {
						old := u[k]
						u[k] = float64(x)
						sameScan(t, "special query element", u, v, b, n, off)
						u[k] = old
					}
				}
				for j := range b {
					for _, x := range scanSpecials {
						old := b[j]
						b[j] = x
						sameScan(t, "special bias", u, v, b, n, off)
						b[j] = old
					}
				}
			}
		}
	}
	// A query beyond float32 range: products overflow in float64 too.
	u := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, math.MaxFloat64}
	v := make([]float32, 0, 25)
	for j := 0; j < 5; j++ {
		v = append(v, math.MaxFloat32, math.MaxFloat32, 1e-40, float32(j), -2)
	}
	sameScan(t, "float64 extremes", u, v, []float32{1, -1, 0, math.MaxFloat32, 1e-40}, 5, 1)

	// d == 0 and a nil everything are the portable loop's answers too.
	sameScan(t, "d=0", nil, nil, []float32{1, 2, 3, 4, 5}, 5, 0)
	sameScan(t, "n=0", []float64{1}, nil, nil, 0, 0)
}

// TestScanF64F32IsDotF64F32 ties the scan to the single-row kernels the
// other float32 paths call, rather than to its own portable body.
func TestScanF64F32IsDotF64F32(t *testing.T) {
	rng := NewRNG(22)
	for _, d := range []int{1, 3, 4, 6, 16, 18, 96} {
		const n = 37
		u32 := randF32(rng, d)
		u := WidenF32(u32, nil)
		v, b := randF32(rng, n*d), randF32(rng, n)
		out := make([]float64, n)
		ScanF64F32(u, v, b, out)
		for j, got := range out {
			row := v[j*d : (j+1)*d]
			if want := DotF64F32(u, row) + float64(b[j]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d row %d: scan %v, DotF64F32+bias %v", d, j, got, want)
			}
			if want := DotF32(u32, row) + float64(b[j]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d row %d: scan %v, DotF32+bias %v", d, j, got, want)
			}
		}
	}
}

// TestScanF64F32ShortSlicePanics: a v, b or out one element short (or
// long) is refused before the kernel is handed a pointer — it must never
// read past a mapping's end.
func TestScanF64F32ShortSlicePanics(t *testing.T) {
	const n, d = 5, 6
	u, v, b, out := make([]float64, d), make([]float32, n*d), make([]float32, n), make([]float64, n)
	for name, call := range map[string]func(){
		"v short":   func() { ScanF64F32(u, v[:n*d-1], b, out) },
		"v long":    func() { ScanF64F32(u, append(v, 0), b, out) },
		"b short":   func() { ScanF64F32(u, v, b[:n-1], out) },
		"b empty":   func() { ScanF64F32(u, v, b[:0], out) },
		"out short": func() { ScanF64F32(u, v, b, out[:n-1]) },
		"u short":   func() { ScanF64F32(u[:d-1], v, b, out) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	ScanF64F32(u, v, b, out) // the exact shapes do not
	ScanF64F32(u, v, nil, out)
}

// FuzzScanF64F32 feeds raw bit patterns — so every NaN payload, subnormal
// and infinity is reachable — through the kernel and the portable loop.
// The first two bytes pick d and the offset parity; the rest are the
// query (as float32 bit patterns, widened), then rows, then biases.
func FuzzScanF64F32(f *testing.F) {
	seed := func(d, off byte, words ...uint32) {
		buf := []byte{d, off}
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint32(buf, w)
		}
		f.Add(buf)
	}
	const (
		one, negZero, inf, negInf = 0x3f800000, 0x80000000, 0x7f800000, 0xff800000
		nan, sub, maxF            = 0x7fc00001, 0x00000001, 0x7f7fffff
	)
	seed(1, 0, one, one, one)
	seed(1, 1, maxF, 0, maxF, inf, negZero, sub, nan, one, one, one, negInf, one) // five rows: a pass and a handed-off row
	seed(3, 1, one, negZero, sub, maxF, maxF, negInf, one, one, one, nan)
	seed(2, 0, maxF, maxF, maxF, maxF, maxF, maxF, one, sub, negZero, inf, one, nan, negInf, one) // four rows, four biases
	seed(4, 0, maxF, maxF, maxF, maxF, maxF, maxF, maxF, maxF, inf, negZero, sub, one, one)
	seed(6, 1, one, one, one, one, one, one, sub, sub, negZero, 0, inf, negInf, 0, 0, 0, 0, 0, 0, 0, nan)
	seed(18, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d, off := int(data[0]%68), int(data[1]%2)
		words := make([]float32, 0, len(data)/4)
		for data = data[2:]; len(data) >= 4; data = data[4:] {
			words = append(words, math.Float32frombits(binary.LittleEndian.Uint32(data)))
		}
		if d == 0 || len(words) < d+off {
			return
		}
		u := WidenF32(words[:d], nil)
		words = words[d+off:]
		n := len(words) / (d + 1) // n rows and n biases
		v, b := words[:n*d], words[n*d:n*d+n]
		sameScan(t, "fuzz", u, v, b, n, off)
		sameScan(t, "fuzz, no bias", u, v, nil, n, off)
	})
}

// sameScanF64 is sameScan for ScanF64 against scanF64Go.
func sameScanF64(t *testing.T, label string, u, v, b []float64, n int, outOff int) {
	t.Helper()
	got, want := make([]float64, outOff+n+1), make([]float64, outOff+n+1)
	const canary = -12345.5
	Fill(got, canary)
	Fill(want, canary)
	ScanF64(u, v, b, got[outOff:outOff+n])
	scanF64Go(u, v, b, nil, want[outOff:outOff+n])
	sameBits(t, label, got, want, outOff)
}

func randF64(rng *RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

var scanF64Specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// TestScanF64MatchesPortable is the float64 kernel's bit-identity table:
// every d from 1 to 67 (every residue mod 4, and d < 4 where only the
// gathering tail runs), row counts that leave 0..3 rows to the Go body
// beside whole passes and around the 512-score tile, with and without
// bias, v, b and out starting at odd element offsets, over random rows
// and — for n <= 5, so that each of the four lanes and a handed-off row
// are hit — ±0, subnormals, ±Inf, NaN and ±MaxFloat64 at every position
// of the catalog, the query and the bias.
func TestScanF64MatchesPortable(t *testing.T) {
	t.Logf("AVX kernel in use: %v", useAVX)
	rng := NewRNG(31)
	for d := 1; d <= 67; d++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 511, 512, 513} {
			for _, off := range []int{0, 1, 3} {
				u := randF64(rng, d)
				v := randF64(rng, off+n*d)[off:]
				b := randF64(rng, off+n)[off:]
				sameScanF64(t, "random", u, v, b, n, off)
				sameScanF64(t, "random, no bias", u, v, nil, n, off)
				if n == 0 || n > 5 || (off == 3 && d > 20) {
					continue
				}
				for k := range v {
					for _, x := range scanF64Specials {
						old := v[k]
						v[k] = x
						sameScanF64(t, "special row element", u, v, b, n, off)
						v[k] = old
					}
				}
				for k := range u {
					for _, x := range scanF64Specials {
						old := u[k]
						u[k] = x
						sameScanF64(t, "special query element", u, v, b, n, off)
						u[k] = old
					}
				}
				for j := range b {
					for _, x := range scanF64Specials {
						old := b[j]
						b[j] = x
						sameScanF64(t, "special bias", u, v, b, n, off)
						b[j] = old
					}
				}
			}
		}
	}
	// Products that overflow, cancel and underflow within one row, in
	// every lane.
	u := []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, math.MaxFloat64}
	v := make([]float64, 0, 25)
	for j := 0; j < 5; j++ {
		v = append(v, 2, 2, 0.5, float64(j), -2)
	}
	sameScanF64(t, "float64 extremes", u, v, []float64{1, -1, 0, math.MaxFloat64, 1e-320}, 5, 1)

	// d == 0 and a nil everything are the portable loop's answers too.
	sameScanF64(t, "d=0", nil, nil, []float64{1, 2, 3, 4, 5}, 5, 0)
	sameScanF64(t, "n=0", []float64{1}, nil, nil, 0, 0)
}

// TestScanF64IsDot ties the scan to mathx.Dot itself — the function every
// other float64 score calls — rather than to its own portable body: each
// row a distinct vector, so a kernel that put a row in the wrong lane
// would answer with its neighbour's score.
func TestScanF64IsDot(t *testing.T) {
	rng := NewRNG(32)
	for _, d := range []int{1, 3, 4, 6, 16, 18, 96} {
		const n = 39
		u, v, b := randF64(rng, d), randF64(rng, n*d), randF64(rng, n)
		out, plain := make([]float64, n), make([]float64, n)
		ScanF64(u, v, b, out)
		ScanF64(u, v, nil, plain)
		for j := range out {
			dot := Dot(u, v[j*d:(j+1)*d])
			if want := dot + b[j]; math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("d=%d row %d: scan %v, Dot+bias %v", d, j, out[j], want)
			}
			if math.Float64bits(plain[j]) != math.Float64bits(dot) {
				t.Fatalf("d=%d row %d: scan without bias %v, Dot %v", d, j, plain[j], dot)
			}
		}
	}
}

// TestScanF64ShortSlicePanics: a v, b or out one element short (or long)
// is refused before the kernel is handed a pointer.
func TestScanF64ShortSlicePanics(t *testing.T) {
	const n, d = 9, 6
	u, v, b, out := make([]float64, d), make([]float64, n*d), make([]float64, n), make([]float64, n)
	for name, call := range map[string]func(){
		"v short":   func() { ScanF64(u, v[:n*d-1], b, out) },
		"v long":    func() { ScanF64(u, append(v, 0), b, out) },
		"b short":   func() { ScanF64(u, v, b[:n-1], out) },
		"b empty":   func() { ScanF64(u, v, b[:0], out) },
		"out short": func() { ScanF64(u, v, b, out[:n-1]) },
		"u short":   func() { ScanF64(u[:d-1], v, b, out) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	ScanF64(u, v, b, out) // the exact shapes do not
	ScanF64(u, v, nil, out)
}

// sameRows fails unless ScanF64Rows — the AVX kernel where the host has
// one — and scanF64Go, its portable body, both score every listed row of
// v with mathx.Dot's bits and write nothing past len(rows) of out.
func sameRows(t *testing.T, label string, u, v []float64, rows []int32) {
	t.Helper()
	d, n := len(u), len(rows)
	got, port, want := make([]float64, n+1), make([]float64, n+1), make([]float64, n+1)
	const canary = -12345.5
	Fill(got, canary)
	Fill(port, canary)
	Fill(want, canary)
	ScanF64Rows(u, v, rows, got[:n])
	scanF64Go(u, v, nil, rows, port[:n])
	for j, r := range rows {
		want[j] = Dot(u, v[int(r)*d:int(r)*d+d])
	}
	sameBits(t, label, got, want, 0)
	sameBits(t, label+" portable", port, want, 0)
}

// TestScanF64RowsIsDot ties the row-list scan to mathx.Dot: lists of every
// length from 0 to 9 (none, part of one pass of four, whole passes, and
// every count of rows left to the Go body), ids adjacent, descending from
// the last row, one id repeated and random ones, over rows that each hold
// a distinct vector and, every seventh, an IEEE special — so a pass that
// read consecutive rows instead of the list's, or put a row in the wrong
// lane, answers with another row's score.
func TestScanF64RowsIsDot(t *testing.T) {
	rng := NewRNG(34)
	const nrows = 40
	for _, d := range []int{1, 3, 4, 5, 16, 18} {
		u, v := randF64(rng, d), randF64(rng, nrows*d)
		for r := 0; r < nrows; r += 7 {
			v[r*d+rng.Intn(d)] = scanF64Specials[rng.Intn(len(scanF64Specials))]
		}
		sameRows(t, fmt.Sprintf("d=%d nil list", d), u, v, nil)
		for n := 0; n <= 9; n++ {
			adjacent, descending, repeated, random := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
			start, same := int32(rng.Intn(nrows-n)), int32(rng.Intn(nrows))
			for j := range n {
				adjacent[j] = start + int32(j)
				descending[j] = nrows - 1 - 3*int32(j)
				repeated[j] = same
				random[j] = int32(rng.Intn(nrows))
			}
			for _, c := range []struct {
				name string
				rows []int32
			}{{"adjacent", adjacent}, {"descending", descending}, {"repeated", repeated}, {"random", random}} {
				sameRows(t, fmt.Sprintf("d=%d %d %s ids", d, n, c.name), u, v, c.rows)
			}
		}
	}
}

// TestScanF64RowsPanics: an id outside the matrix — negative, one past the
// last row, or on the partial row of a v one element short — and an out
// one short or long are refused before a row is read: the panic is
// ScanF64Rows' own, not the runtime's, and out is untouched.
func TestScanF64RowsPanics(t *testing.T) {
	const n, d = 9, 6
	rng := NewRNG(35)
	u, v := randF64(rng, d), randF64(rng, n*d)
	rows := []int32{0, 3, 8, 2, 5}
	for _, c := range []struct {
		name string
		v    []float64
		rows []int32
		out  int
	}{
		{"negative id", v, []int32{0, 3, -1, 2, 5}, 5},
		{"id past the last row", v, []int32{0, 3, 2, 5, n}, 5},
		{"id on a partial row", v[:n*d-1], rows, 5},
		{"out short", v, rows, 4},
		{"out long", v, rows, 6},
	} {
		const canary = -12345.5
		out := make([]float64, c.out)
		Fill(out, canary)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "mathx: ScanF64Rows") {
					t.Errorf("%s: panic %q, want ScanF64Rows' own", c.name, msg)
				}
			}()
			ScanF64Rows(u, c.v, c.rows, out)
		}()
		for _, x := range out {
			if x != canary {
				t.Errorf("%s: out written before the panic", c.name)
				break
			}
		}
	}
	ScanF64Rows(u, v, rows, make([]float64, len(rows))) // the exact shapes do not
}

// FuzzScanF64 feeds raw float64 bit patterns through the kernel and the
// portable loop. The first two bytes pick d and the offset parity; the
// rest are the query, then rows, then biases. The row-list scan reads the
// same rows through a list of as many ids, each a bias word's bits modulo
// the row count.
func FuzzScanF64(f *testing.F) {
	seed := func(d, off byte, words ...uint64) {
		buf := []byte{d, off}
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		f.Add(buf)
	}
	const (
		one, negZero, inf, negInf = 0x3ff0000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000
		nan, sub, maxF            = 0x7ff8000000000001, 0x0000000000000001, 0x7fefffffffffffff
	)
	seed(1, 0, one, one, one)
	seed(1, 1, maxF, 0, maxF, inf, negZero, sub, nan, one, one, one, negInf, one) // five rows: a pass and a handed-off row
	seed(3, 1, one, negZero, sub, 0, maxF, maxF, negInf, one, one, one, nan)
	seed(2, 0, maxF, maxF, maxF, maxF, maxF, maxF, one, sub, negZero, inf, one, nan, negInf, one) // four rows, four biases
	seed(6, 1, one, one, one, one, one, one, 0, sub, sub, negZero, 0, inf, negInf, 0, 0, 0, 0, 0, 0, 0, nan)
	seed(18, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d, off := int(data[0]%68), int(data[1]%2)
		words := make([]float64, 0, len(data)/8)
		for data = data[2:]; len(data) >= 8; data = data[8:] {
			words = append(words, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if d == 0 || len(words) < d+off {
			return
		}
		u := words[:d]
		words = words[d+off:]
		n := len(words) / (d + 1) // n rows and n biases
		v, b := words[:n*d], words[n*d:n*d+n]
		sameScanF64(t, "fuzz", u, v, b, n, off)
		sameScanF64(t, "fuzz, no bias", u, v, nil, n, off)
		if n > 0 {
			rows := make([]int32, n)
			for j, w := range b {
				rows[j] = int32(math.Float64bits(w) % uint64(n))
			}
			sameRows(t, "fuzz, row list", u, v, rows)
		}
	})
}

// sameFirst fails unless FirstNotBelow — the AVX predicate where the host
// has one — answers what firstNotBelowGo, its specification, answers, and
// returns that answer.
func sameFirst(t *testing.T, label string, x []float64, floor float64) int {
	t.Helper()
	got, want := FirstNotBelow(x, floor), firstNotBelowGo(x, floor)
	if got != want {
		t.Fatalf("%s: FirstNotBelow(%d scores, floor %v (%#x)) = %d, portable loop %d",
			label, len(x), floor, math.Float64bits(floor), got, want)
	}
	return got
}

// TestFirstNotBelowMatchesLoop is the predicate's table: every length from
// 0 to 67 at odd and even slice offsets, a run of finite scores below the
// floor with one other value planted at every position in turn — so it
// meets each of the four lanes and the Go tail — and the answer checked
// against the portable loop and against the position itself. What must be
// returned: the floor (a tie has to reach the heap, whose order settles
// it), anything above it, and NaN and ±Inf at any floor (Offer counts
// them). What must not: the value one ulp below the floor, -MaxFloat64.
// Then the floors a selector really holds or could be handed: -Inf (the
// heap not yet full) stops at once, +Inf passes only non-finite scores, a
// NaN floor stops at once.
func TestFirstNotBelowMatchesLoop(t *testing.T) {
	t.Logf("AVX kernel in use: %v", useAVX)
	rng := NewRNG(41)
	inf, nan := math.Inf(1), math.NaN()
	for _, floor := range []float64{1.5, 0, math.Copysign(0, -1), -2.25, math.SmallestNonzeroFloat64, -math.MaxFloat64 / 2, math.MaxFloat64} {
		below := math.Nextafter(floor, -inf)
		stops := []float64{floor, math.Nextafter(floor, inf), inf, -inf, nan, math.Float64frombits(0xfff0000000000001), math.MaxFloat64}
		passes := []float64{below, -math.MaxFloat64}
		for n := 0; n <= 67; n++ {
			for _, off := range []int{0, 1, 3} {
				x := make([]float64, off+n)[off:]
				for i := range x {
					x[i] = below - math.Abs(rng.NormFloat64()) // finite: |below| <= MaxFloat64 absorbs it
				}
				if got := sameFirst(t, "all below", x, floor); got != n {
					t.Fatalf("floor %v: %d scores all below it: got %d", floor, n, got)
				}
				for p := range x {
					old := x[p]
					for _, v := range stops {
						x[p] = v
						if got := sameFirst(t, "planted stop", x, floor); got != p {
							t.Fatalf("floor %v, n=%d off=%d: %v (%#x) at %d: got %d", floor, n, off, v, math.Float64bits(v), p, got)
						}
					}
					for _, v := range passes {
						x[p] = v
						if got := sameFirst(t, "planted pass", x, floor); got != n {
							t.Fatalf("floor %v, n=%d off=%d: %v at %d is below the floor: got %d", floor, n, off, v, p, got)
						}
					}
					x[p] = old
				}
				if n == 0 {
					continue
				}
				// Two survivors: the first one wins, whatever lane the
				// second shares with it.
				x[n-1], x[n/2] = floor, nan
				if got := sameFirst(t, "two stops", x, floor); got != n/2 {
					t.Fatalf("floor %v, n=%d: stops at %d and %d: got %d", floor, n, n/2, n-1, got)
				}
			}
		}
	}
	for n := 0; n <= 67; n++ {
		x := randF64(rng, n)
		for i := range x {
			if i%5 == 0 {
				x[i] = math.Copysign(math.MaxFloat64, x[i])
			}
		}
		if got := sameFirst(t, "floor -Inf", x, -inf); got != 0 {
			t.Fatalf("floor -Inf over %d finite scores: got %d", n, got)
		}
		if got := sameFirst(t, "floor NaN", x, nan); got != 0 {
			t.Fatalf("floor NaN over %d finite scores: got %d", n, got)
		}
		if got := sameFirst(t, "floor +Inf", x, inf); got != n {
			t.Fatalf("floor +Inf over %d finite scores: got %d", n, got)
		}
		for p := range x {
			old := x[p]
			for _, v := range []float64{inf, -inf, nan} {
				x[p] = v
				if got := sameFirst(t, "floor +Inf, non-finite", x, inf); got != p {
					t.Fatalf("floor +Inf, n=%d: %v at %d: got %d", n, v, p, got)
				}
			}
			x[p] = old
		}
	}
}

// FuzzFirstNotBelow feeds raw float64 bit patterns through the predicate
// and the portable loop. The first byte picks the slice's offset parity,
// the next eight the floor; the rest are the scores.
func FuzzFirstNotBelow(f *testing.F) {
	seed := func(off byte, words ...uint64) {
		buf := []byte{off}
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		f.Add(buf)
	}
	const (
		one, two, negZero, inf, negInf = 0x3ff0000000000000, 0x4000000000000000, 0x8000000000000000, 0x7ff0000000000000, 0xfff0000000000000
		nan, sub, belowTwo, negNaN     = 0x7ff8000000000001, 0x0000000000000001, 0x3fffffffffffffff, 0xfff8000000000000
	)
	seed(0, two, one, belowTwo, two, one, one, one, one, one, belowTwo, two) // a tie in lane 2, and one in the tail
	seed(1, two, 0, one, one, one, belowTwo, negInf, one, one, one)          // -Inf in the second group
	seed(0, two, one, sub, negZero, negNaN, one, one, one, one)              // a NaN in lane 3
	seed(1, negInf, 0, one, one, one, one)                                   // the heap not yet full
	seed(0, inf, one, two, one, two, one, two, one, inf)                     // +Inf floor: only the non-finite
	seed(0, nan, one, one, one, one)                                         // NaN floor
	seed(0, two, one, one, one, one, one, one, one, one, one, one)           // none
	seed(1, two)                                                             // empty
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		off := int(data[0] % 2)
		floor := math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
		x := make([]float64, 0, len(data)/8)
		for data = data[9:]; len(data) >= 8; data = data[8:] {
			x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(x) < off {
			return
		}
		for x = x[off:]; ; { // every survivor in turn, as the selector walks a tile
			i := sameFirst(t, "fuzz", x, floor)
			if i == len(x) {
				return
			}
			x = x[i+1:]
		}
	})
}

// BenchmarkScanF64F32 is the in-package twin of the ledger's
// score.scan_f32_us: the benchmark catalog's 26 744 items at d = 16, and
// a ragged d = 18 where every row ends in a two-element tail. kernel and
// portable scan the catalog in one call into a 214 KB row; tiles scans it
// as score.Engine.sweep does, 53 calls of at most 512 rows into one 4 KB
// buffer that stays in L1 — the shape the exact shard serves.
func BenchmarkScanF64F32(b *testing.B) {
	const n, tile = 26744, 512
	rng := NewRNG(1)
	for _, d := range []int{16, 18} {
		u := make([]float64, d)
		for k := range u {
			u[k] = rng.NormFloat64()
		}
		v, bias, out := randF32(rng, n*d), randF32(rng, n), make([]float64, n)
		for _, impl := range []struct {
			name string
			scan func(u []float64, v, b []float32, out []float64)
		}{
			{"kernel", ScanF64F32},
			{"tiles", func(u []float64, v, b []float32, out []float64) {
				for lo := 0; lo < n; lo += tile {
					hi := min(lo+tile, n)
					ScanF64F32(u, v[lo*d:hi*d], b[lo:hi], out[:hi-lo])
				}
			}},
			{"portable", scanGo},
		} {
			b.Run(fmt.Sprintf("%s/d=%d", impl.name, d), func(b *testing.B) {
				b.SetBytes(int64(4 * (len(v) + len(bias))))
				for i := 0; i < b.N; i++ {
					impl.scan(u, v, bias, out)
				}
			})
		}
	}
}

// BenchmarkFirstNotBelow walks one 512-score tile from survivor to
// survivor, as rank.Selector.OfferRun does, with the floor where a full
// heap of 10 over a 26 744-item catalog leaves it: about one score in a
// thousand at or above it.
func BenchmarkFirstNotBelow(b *testing.B) {
	const tile = 512
	x := randF64(NewRNG(2), tile)
	const floor = 3.09 // the standard normal's 99.9th percentile
	for _, impl := range []struct {
		name  string
		first func(x []float64, floor float64) int
	}{{"kernel", FirstNotBelow}, {"portable", firstNotBelowGo}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(8 * tile)
			survivors := 0
			for i := 0; i < b.N; i++ {
				for j := 0; ; j++ {
					if j += impl.first(x[j:], floor); j == tile {
						break
					}
					survivors++
				}
			}
			benchSurvivors = survivors
		})
	}
}

var benchSurvivors int

// BenchmarkScanF64 is the in-package twin of the ledger's
// score.scan_f64_us, at BenchmarkScanF64F32's two shapes, and ScanF64Rows
// at a bounded k-means sweep's: one centroid's 23 surviving points of a
// 328-point run, d = 18.
func BenchmarkScanF64(b *testing.B) {
	const n = 26744
	rng := NewRNG(1)
	for _, d := range []int{16, 18} {
		u, v, bias, out := randF64(rng, d), randF64(rng, n*d), randF64(rng, n), make([]float64, n)
		for _, impl := range []struct {
			name string
			scan func(u, v, b, out []float64)
		}{{"kernel", ScanF64}, {"portable", func(u, v, b, out []float64) { scanF64Go(u, v, b, nil, out) }}} {
			b.Run(fmt.Sprintf("%s/d=%d", impl.name, d), func(b *testing.B) {
				b.SetBytes(int64(8 * (len(v) + len(bias))))
				for i := 0; i < b.N; i++ {
					impl.scan(u, v, bias, out)
				}
			})
		}
	}
	const k, d, m = 328, 18, 23
	u, v, out, rows := randF64(rng, d), randF64(rng, k*d), make([]float64, m), make([]int32, m)
	for j := range rows {
		rows[j] = int32(j * k / m) // ascending, as a sweep's survivors are
	}
	b.Run(fmt.Sprintf("rows/d=%d", d), func(b *testing.B) {
		b.SetBytes(int64(8 * m * d))
		for i := 0; i < b.N; i++ {
			ScanF64Rows(u, v, rows, out)
		}
	})
}
