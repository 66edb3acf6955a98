package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The loops below are the product kernels as they stood before the vector
// row update (commit 6ba3676), verbatim apart from the ref prefix. They are
// the oracle: every kernel must reproduce them bit for bit.

func refMulToBlock(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		ci := dst.Row(i)
		for j := range ci {
			ci[j] = 0
		}
		for k, av := range ai {
			if av == 0 {
				continue
			}
			bk := b.Row(k)
			for j, bv := range bk {
				ci[j] += av * bv
			}
		}
	}
}

func refMulTToSerial(dst, a, b *Dense) {
	dst.Zero()
	for k := 0; k < a.rows; k++ {
		ak := a.Row(k)
		bk := b.Row(k)
		for i, av := range ak {
			if av == 0 {
				continue
			}
			di := dst.Row(i)
			for j, bv := range bk {
				di[j] += av * bv
			}
		}
	}
}

func refMulTToBlock(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		di := dst.Row(i)
		for j := range di {
			di[j] = 0
		}
		for k := 0; k < a.rows; k++ {
			av := a.data[k*a.cols+i]
			if av == 0 {
				continue
			}
			bk := b.Row(k)
			for j, bv := range bk {
				di[j] += av * bv
			}
		}
	}
}

func refMulBTToBlock(dst, a, b *Dense, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		for j := 0; j < b.rows; j++ {
			bj := b.Row(j)
			var s float64
			for k, av := range ai {
				s += av * bj[k]
			}
			di[j] = s
		}
	}
}

func refSpMMTo(dst *Dense, s *CSR, b *Dense) {
	dst.Zero()
	for i := 0; i < s.rows; i++ {
		di := dst.Row(i)
		for k := s.indptr[i]; k < s.indptr[i+1]; k++ {
			j, v := s.indices[k], s.vals[k]
			bj := b.Row(j)
			for c, bv := range bj {
				di[c] += v * bv
			}
		}
	}
}

// refCSRT is CSR.T as it stood: the triplets, row by row, through NewCSR.
func refCSRT(m *CSR) *CSR {
	is := make([]int, 0, m.NNZ())
	js := make([]int, 0, m.NNZ())
	vs := make([]float64, 0, m.NNZ())
	for i := 0; i < m.rows; i++ {
		m.RowNZ(i, func(j int, v float64) {
			is = append(is, j)
			js = append(js, i)
			vs = append(vs, v)
		})
	}
	return NewCSR(m.cols, m.rows, is, js, vs)
}

func refAddScaled(m, b *Dense, s float64) {
	for i, v := range b.data {
		m.data[i] += s * v
	}
}

func refAxpy(dst, src []float64, s float64) {
	for i, v := range src {
		dst[i] += s * v
	}
}

// kernelWidths holds every tail length of the 8-wide body, its 2-wide and
// scalar tails, and the widths around the paper's 64 and 332.
func kernelWidths() []int {
	var w []int
	for _, r := range [][2]int{{0, 17}, {31, 33}, {63, 65}, {299, 340}} {
		for n := r[0]; n <= r[1]; n++ {
			w = append(w, n)
		}
	}
	return w
}

const canary = 0x7ff8dead0000beef // a NaN payload no computation produces

// paddedDense returns an r×c matrix carved out of a larger allocation at
// element offset off (odd offsets give the kernel 8-byte-aligned, 16-byte-
// unaligned rows), with canary elements on both sides; check reports
// whether the canaries survived.
func paddedDense(r, c, off int) (m *Dense, check func() bool) {
	buf := make([]float64, off+r*c+2)
	for i := range buf {
		buf[i] = math.Float64frombits(canary)
	}
	data := buf[off : off+r*c : off+r*c]
	clear(data)
	return NewDenseData(r, c, data), func() bool {
		for i, v := range buf {
			if (i < off || i >= off+r*c) && math.Float64bits(v) != canary {
				return false
			}
		}
		return true
	}
}

// specials are sprinkled into operands: signed zero, denormals, infinities
// and NaN must take the same path through the vector lanes as through the
// scalar loop.
var specials = []float64{
	math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, math.Inf(1), math.Inf(-1), math.NaN(),
}

// fillRand fills m with normals, zeroing a sparsity share of the elements;
// special additionally replaces about one element in sixteen with a value
// from specials.
func fillRand(r *rand.Rand, m *Dense, sparsity float64, special bool) {
	for i := range m.data {
		switch {
		case r.Float64() < sparsity:
			m.data[i] = 0
		case special && r.Intn(16) == 0:
			m.data[i] = specials[r.Intn(len(specials))]
		default:
			m.data[i] = r.NormFloat64()
		}
	}
}

// sameBits compares element-wise: NaN matches any NaN (which operand's
// payload survives an addition of two NaNs is the one thing the vector and
// scalar forms may disagree on), everything else must be Float64bits-equal.
func sameBits(got, want []float64) int {
	for i, g := range got {
		w := want[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			return i
		}
	}
	return -1
}

func randCSR(r *rand.Rand, rows, cols int, sparsity float64, special bool) *CSR {
	var is, js []int
	var vs []float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < sparsity {
				continue
			}
			v := r.NormFloat64()
			if special && r.Intn(16) == 0 {
				v = specials[r.Intn(len(specials))]
			}
			is, js, vs = append(is, i), append(js, j), append(vs, v)
		}
	}
	return NewCSR(rows, cols, is, js, vs)
}

// TestKernelsMatchReference holds every product kernel, SpMMTo and
// AddScaled to the pre-kernel loops above: all tail lengths on the streamed
// width, rows 1–40, left-operand sparsity from dense to all-zero, special
// values, operands at odd element offsets, and both the serial and the
// row-parallel dispatch.
func TestKernelsMatchReference(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	widths := kernelWidths()
	r := rand.New(rand.NewSource(17))
	for _, procs := range []int{1, 4} {
		SetParallelism(procs)
		for wi, n := range widths {
			rows := 1 + wi%40
			// The inner width is any of them under a narrow output and one
			// of 0–17 under a wide output, and the second pass keeps only
			// the products large enough to split across workers (the rest
			// would repeat the first pass): the test stays near a second.
			k := widths[(wi*13+5)%len(widths)]
			if n >= 299 {
				k = widths[(wi*13+5)%18]
			}
			if procs > 1 && 2*rows*k*n < serialFLOPCutoff {
				continue
			}
			for si, sparsity := range []float64{0, 0.5, 0.9, 1} {
				special := (wi+si)%2 == 1
				off := (wi + si) % 2
				name := fmt.Sprintf("procs=%d/%dx%dx%d/sparsity=%v/special=%v/off=%d",
					procs, rows, k, n, sparsity, special, off)

				// MulTo: rows×k · k×n, streaming rows of width n.
				a, _ := paddedDense(rows, k, off)
				b, _ := paddedDense(k, n, off)
				fillRand(r, a, sparsity, special)
				fillRand(r, b, 0, special)
				got, intact := paddedDense(rows, n, off)
				want := NewDense(rows, n)
				got.Fill(1) // a kernel must overwrite, never accumulate into, dst
				MulTo(got, a, b)
				refMulToBlock(want, a, b, 0, rows)
				if i := sameBits(got.data, want.data); i >= 0 || !intact() {
					t.Fatalf("MulTo %s: element %d got %v want %v (canaries intact: %v)",
						name, i, got.data[max(i, 0)], want.data[max(i, 0)], intact())
				}

				// MulTTo: (k×rows)ᵀ · k×n; the serial and the row-owned
				// kernels must both match both references.
				at, _ := paddedDense(k, rows, off)
				fillRand(r, at, sparsity, special)
				got, intact = paddedDense(rows, n, off)
				got.Fill(1)
				MulTTo(got, at, b)
				refMulTToSerial(want, at, b)
				if i := sameBits(got.data, want.data); i >= 0 || !intact() {
					t.Fatalf("MulTTo %s: element %d differs from the serial reference", name, i)
				}
				refMulTToBlock(want, at, b, 0, rows)
				if i := sameBits(got.data, want.data); i >= 0 {
					t.Fatalf("MulTTo %s: element %d differs from the block reference", name, i)
				}
				got.Fill(1)
				mulTToBlock(got, at, b, 0, rows)
				if i := sameBits(got.data, want.data); i >= 0 || !intact() {
					t.Fatalf("mulTToBlock %s: element %d differs", name, i)
				}

				// MulBTTo: rows×k · (n×k)ᵀ: n output columns, four per
				// pass, dot products of length k.
				bt, _ := paddedDense(n, k, off)
				fillRand(r, bt, 0, special)
				got, intact = paddedDense(rows, n, off)
				got.Fill(1)
				MulBTTo(got, a, bt)
				refMulBTToBlock(want, a, bt, 0, rows)
				if i := sameBits(got.data, want.data); i >= 0 || !intact() {
					t.Fatalf("MulBTTo %s: element %d differs", name, i)
				}

				// SpMMTo: a rows×rows operator over rows×n.
				s := randCSR(r, rows, rows, sparsity, special)
				sb, _ := paddedDense(rows, n, off)
				fillRand(r, sb, 0, special)
				got, intact = paddedDense(rows, n, off)
				got.Fill(1)
				SpMMTo(got, s, sb)
				refSpMMTo(want, s, sb)
				if i := sameBits(got.data, want.data); i >= 0 || !intact() {
					t.Fatalf("SpMMTo %s: element %d differs", name, i)
				}

				// AddScaled over rows·n elements, then exactly
				// self-aliased: m += s·m.
				scale := r.NormFloat64()
				got, intact = paddedDense(rows, n, off)
				fillRand(r, got, sparsity, special)
				want.CopyFrom(got)
				got.AddScaled(sb, scale)
				refAddScaled(want, sb, scale)
				if i := sameBits(got.data, want.data); i >= 0 || !intact() {
					t.Fatalf("AddScaled %s: element %d differs", name, i)
				}
				got.AddScaled(got, scale)
				refAddScaled(want, want, scale)
				if i := sameBits(got.data, want.data); i >= 0 || !intact() {
					t.Fatalf("AddScaled(m, m) %s: element %d differs", name, i)
				}
			}
		}
		// One element-wise case past the parallel split's 2×serialElemCutoff.
		big, intact := paddedDense(401, 331, 1)
		src, _ := paddedDense(401, 331, 1)
		fillRand(r, big, 0.5, true)
		fillRand(r, src, 0.5, true)
		want := big.Clone()
		big.AddScaled(src, -0.37)
		refAddScaled(want, src, -0.37)
		if i := sameBits(big.data, want.data); i >= 0 || !intact() {
			t.Fatalf("AddScaled 401x331 at parallelism %d: element %d differs", procs, i)
		}
		big.AddScaled(big, 1.5)
		refAddScaled(want, want, 1.5)
		if i := sameBits(big.data, want.data); i >= 0 || !intact() {
			t.Fatalf("AddScaled(m, m) 401x331 at parallelism %d: element %d differs", procs, i)
		}
	}
}

// TestCSRTransposeMatchesReference holds the counting transpose to the
// triplet rebuild it replaced: the same entries in the same order (the
// order is what an SpMM over the transpose sums in), duplicates merged on
// the way in included.
func TestCSRTransposeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, sh := range [][2]int{{0, 0}, {1, 1}, {1, 7}, {7, 1}, {18, 18}, {29, 11}, {5, 40}} {
		for _, sparsity := range []float64{0, 0.7, 1} {
			s := randCSR(r, sh[0], sh[1], sparsity, true)
			if sparsity == 0.7 && sh[0] > 1 { // a duplicate coordinate for NewCSR to merge
				s = NewCSR(sh[0], sh[1], append([]int{1, 1}, s.rowsOf()...),
					append([]int{0, 0}, s.indices...), append([]float64{2, 3}, s.vals...))
			}
			got, want := s.T(), refCSRT(s)
			if got.rows != want.rows || got.cols != want.cols ||
				!slices.Equal(got.indptr, want.indptr) || !slices.Equal(got.indices, want.indices) ||
				sameBits(got.vals, want.vals) >= 0 || len(got.vals) != len(want.vals) {
				t.Fatalf("%dx%d sparsity %v: T() = %+v, reference %+v", sh[0], sh[1], sparsity, got, want)
			}
		}
	}
}

// rowsOf expands indptr back into one row index per stored entry.
func (m *CSR) rowsOf() []int {
	var is []int
	for i := 0; i < m.rows; i++ {
		for k := m.indptr[i]; k < m.indptr[i+1]; k++ {
			is = append(is, i)
		}
	}
	return is
}

// TestMulBTChainsIndependent pins what the four-column pass must preserve:
// every output is its own sequential dot product from +0, whichever of the
// four lanes (or the one-column tail) computed it.
func TestMulBTChainsIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for cols := 0; cols <= 9; cols++ { // every count of full passes and tail columns
		for _, k := range []int{0, 1, 7, 64, 333} {
			a, b := NewDense(3, k), NewDense(cols, k)
			fillRand(r, a, 0.3, false)
			fillRand(r, b, 0.3, false)
			got := NewDense(3, cols)
			mulBTToBlock(got, a, b, 0, 3)
			for i := 0; i < 3; i++ {
				for j := 0; j < cols; j++ {
					var s float64
					for x := 0; x < k; x++ {
						s += a.At(i, x) * b.At(j, x)
					}
					if math.Float64bits(got.At(i, j)) != math.Float64bits(s) {
						t.Fatalf("k=%d cols=%d: out[%d][%d] = %v, its own dot product is %v",
							k, cols, i, j, got.At(i, j), s)
					}
				}
			}
		}
	}
}

// FuzzAxpy turns arbitrary bytes into a scalar and two equal-length float
// slices and holds the axpy kernel (assembly on amd64, the portable loop
// elsewhere and under -tags purego) and rowUpdate to the reference loop:
// same bits (any NaN for a NaN) and no access beyond len(src), checked with
// canary elements either side of both operands, at an even and an odd
// element offset.
func FuzzAxpy(f *testing.F) {
	seed := func(s float64, vals ...float64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(s))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(2))
	f.Add(seed(-1, 1, 2))
	f.Add(seed(0.5, 1, math.Copysign(0, -1), 5e-324, 0, math.Inf(1), math.NaN()))
	long := make([]float64, 2*37)
	for i := range long {
		long[i] = float64(i) - 17.25
	}
	f.Add(seed(math.Pi, long...))
	f.Add(seed(math.Inf(-1), long[:2*19]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		s := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		n := len(data) / 16
		at := func(i int) float64 {
			return math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for off := 1; off <= 2; off++ {
			for _, kernel := range []func(dst, src []float64, s float64){axpy, rowUpdate} {
				dm, dstIntact := paddedDense(1, n, off)
				sm, srcIntact := paddedDense(1, n, off)
				want := make([]float64, n)
				for i := 0; i < n; i++ {
					dm.data[i], sm.data[i] = at(i), at(n+i)
					want[i] = at(i)
				}
				srcBefore := append([]float64(nil), sm.data...)
				kernel(dm.data, sm.data, s)
				refAxpy(want, srcBefore, s)
				if i := sameBits(dm.data, want); i >= 0 {
					t.Fatalf("n=%d off=%d s=%v: element %d got %v want %v", n, off, s, i, dm.data[i], want[i])
				}
				for i, v := range sm.data {
					if math.Float64bits(v) != math.Float64bits(srcBefore[i]) {
						t.Fatalf("n=%d off=%d: src[%d] was written", n, off, i)
					}
				}
				if !dstIntact() || !srcIntact() {
					t.Fatalf("n=%d off=%d: wrote outside the operands", n, off)
				}
			}
		}
	})
}
