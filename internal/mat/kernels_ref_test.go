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
// values, operands at odd element offsets, and the term-compaction edges of
// checkTermEdges.
func TestKernelsMatchReference(t *testing.T) {
	widths := kernelWidths()
	r := rand.New(rand.NewSource(17))
	for wi, n := range widths {
		rows := 1 + wi%40
		// The inner width is any of them under a narrow output and one of
		// 0–17 under a wide output: the test stays near a second.
		k := widths[(wi*13+5)%len(widths)]
		if n >= 299 {
			k = widths[(wi*13+5)%18]
		}
		for si, sparsity := range []float64{0, 0.5, 0.9, 1} {
			special := (wi+si)%2 == 1
			off := (wi + si) % 2
			name := fmt.Sprintf("%dx%dx%d/sparsity=%v/special=%v/off=%d",
				rows, k, n, sparsity, special, off)

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

			// MulTTo: (k×rows)ᵀ · k×n; the row-owned kernel must match
			// both the k-outer and the row-owned reference.
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

			// MulBTTo: rows×k · (n×k)ᵀ: n output columns, four per pass,
			// dot products of length k.
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

			// AddScaled over rows·n elements, then exactly self-aliased:
			// m += s·m.
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
	// One element-wise case over 132,731 elements.
	big, intact := paddedDense(401, 331, 1)
	src, _ := paddedDense(401, 331, 1)
	fillRand(r, big, 0.5, true)
	fillRand(r, src, 0.5, true)
	want := big.Clone()
	big.AddScaled(src, -0.37)
	refAddScaled(want, src, -0.37)
	if i := sameBits(big.data, want.data); i >= 0 || !intact() {
		t.Fatalf("AddScaled 401x331: element %d differs", i)
	}
	big.AddScaled(big, 1.5)
	refAddScaled(want, want, 1.5)
	if i := sameBits(big.data, want.data); i >= 0 || !intact() {
		t.Fatalf("AddScaled(m, m) 401x331: element %d differs", i)
	}
	checkTermEdges(t, r)
}

// refSumRows and refMaxRows are the readout loops as Tape.SumRows,
// MeanRows and MaxRows ran them before SumRowsTo and MaxRowsTo: one Axpy a
// row into a cleared dst, and the strict `>` row pass.
func refSumRows(dst []float64, a *Dense, s float64) {
	clear(dst)
	for i := 0; i < a.rows; i++ {
		for j, v := range a.Row(i) {
			dst[j] += s * v
		}
	}
}

func refMaxRows(dst []float64, a *Dense) {
	copy(dst, a.Row(0))
	for i := 1; i < a.rows; i++ {
		for j, v := range a.Row(i) {
			if v > dst[j] {
				dst[j] = v
			}
		}
	}
}

// TestRowReadoutsMatchReference holds SumRowsTo (coefficients 1 and 1/n)
// and MaxRowsTo to those loops at every kernel width, rows 1–40 and either
// side of one and two term chunks, at even and odd element offsets, over
// values drawn to tie: small integers, ±0, ±Inf and NaN, with later rows'
// NaNs carrying a payload of their own so that MaxRowsTo must keep exactly
// row 0's. The maximum is compared bit for bit, NaN payload included.
func TestRowReadoutsMatchReference(t *testing.T) {
	laterNaN := math.Float64frombits(0x7ff8000000000b0b)
	pool := []float64{-2, -1, 0, math.Copysign(0, -1), 1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	r := rand.New(rand.NewSource(23))
	check := func(rows, n, off int) {
		name := fmt.Sprintf("%dx%d/off=%d", rows, n, off)
		a, aIntact := paddedDense(rows, n, off)
		for i := range a.data {
			a.data[i] = r.NormFloat64()
			if r.Intn(2) == 0 {
				a.data[i] = pool[r.Intn(len(pool))]
			}
			if math.IsNaN(a.data[i]) && i >= n {
				a.data[i] = laterNaN
			}
		}
		before := append([]float64(nil), a.data...)
		want := make([]float64, n)
		for _, s := range []float64{1, 1 / float64(rows)} {
			got, intact := paddedDense(1, n, off)
			got.Fill(7) // the routine must overwrite, never accumulate into, dst
			SumRowsTo(got.data, a, s)
			refSumRows(want, a, s)
			if i := sameBits(got.data, want); i >= 0 || !intact() {
				t.Fatalf("SumRowsTo %s s=%v: element %d got %v want %v (canaries intact: %v)",
					name, s, i, got.data[max(i, 0)], want[max(i, 0)], intact())
			}
		}
		got, intact := paddedDense(1, n, off)
		got.Fill(7)
		MaxRowsTo(got.data, a)
		refMaxRows(want, a)
		for j, v := range got.data {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("MaxRowsTo %s: column %d got %v (%#x) want %v (%#x)",
					name, j, v, math.Float64bits(v), want[j], math.Float64bits(want[j]))
			}
		}
		if !intact() || !aIntact() || sameBits(a.data, before) >= 0 {
			t.Fatalf("%s: wrote outside dst", name)
		}
	}
	for wi, n := range kernelWidths() {
		for off := 0; off <= 1; off++ {
			check(1+wi%40, n, off)
		}
	}
	for _, rows := range []int{termChunk - 1, termChunk, termChunk + 1, 2*termChunk + 3} {
		for _, n := range []int{1, 5, 16, 27, 64, 300} {
			check(rows, n, 1)
		}
	}
}

// checkTermEdges holds MulTo and MulTTo to their references where the
// compaction of A's terms could go wrong: inner dimensions either side of
// one and two stack chunks, and at 300 columns across the shorter chunks
// wide rows take; a row of +0 only and one of −0 only (no term
// kept, the row stays +0); NaN in A (kept, so its row is NaN); and Inf in B
// under a zero of A (skipped, so that row stays finite). Then the two
// one-term callers and SpMMTo, which never skipped: AddScaled(m, m, 0) over
// an Inf and an explicit 0 in a CSR over an Inf both give NaN, as the
// scalar loops did.
func checkTermEdges(t *testing.T, r *rand.Rand) {
	negZero := math.Copysign(0, -1)
	for _, k := range []int{termChunk - 1, termChunk, termChunk + 1, 2*termChunk + 3} {
		for _, n := range []int{1, 5, 16, 27, 64, 300} {
			name := fmt.Sprintf("5x%dx%d", k, n)
			a, b := NewDense(5, k), NewDense(k, n)
			fillRand(r, a, 0.3, false)
			fillRand(r, b, 0, false)
			for j := 0; j < k; j++ {
				a.Set(1, j, 0)
				a.Set(2, j, negZero)
			}
			a.Set(3, k-1, math.NaN())
			a.Set(4, k/2, 0)
			b.Set(k/2, n-1, math.Inf(1))
			at := transpose(a)

			got, want := NewDense(5, n), NewDense(5, n)
			for _, kernel := range []string{"MulTo", "MulTTo"} {
				got.Fill(1)
				if kernel == "MulTo" {
					MulTo(got, a, b)
					refMulToBlock(want, a, b, 0, 5)
				} else {
					MulTTo(got, at, b)
					refMulTToSerial(want, at, b)
				}
				if i := sameBits(got.data, want.data); i >= 0 {
					t.Fatalf("%s %s: element %d got %v want %v", kernel, name, i, got.data[i], want.data[i])
				}
				for j := 0; j < n; j++ {
					if math.Float64bits(got.At(1, j)) != 0 || math.Float64bits(got.At(2, j)) != 0 {
						t.Fatalf("%s %s: a row of zeros gave %v, %v; want +0", kernel, name, got.At(1, j), got.At(2, j))
					}
					if !math.IsNaN(got.At(3, j)) {
						t.Fatalf("%s %s: NaN in A was dropped (column %d is %v)", kernel, name, j, got.At(3, j))
					}
				}
				if !AllFinite(got.Row(4)) {
					t.Fatalf("%s %s: Inf under a zero of A reached the row: %v", kernel, name, got.Row(4))
				}
			}
		}
	}

	m := NewDenseData(1, 3, []float64{1, math.Inf(1), -2})
	want := m.Clone()
	m.AddScaled(m, 0)
	refAddScaled(want, want, 0)
	if sameBits(m.data, want.data) >= 0 || !math.IsNaN(m.At(0, 1)) {
		t.Fatalf("AddScaled(m, m, 0) over an Inf = %v, want %v", m.data, want.data)
	}

	s := NewCSR(2, 2, []int{0, 0, 1}, []int{0, 1, 1}, []float64{0, 3, 2})
	b := NewDenseData(2, 3, []float64{math.Inf(1), 1, 2, 4, 5, 6})
	got, ref := NewDense(2, 3), NewDense(2, 3)
	SpMMTo(got, s, b)
	refSpMMTo(ref, s, b)
	if sameBits(got.data, ref.data) >= 0 || !math.IsNaN(got.At(0, 0)) {
		t.Fatalf("SpMMTo with an explicit 0 over an Inf = %v, want %v", got.data, ref.data)
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
			MulBTTo(got, a, b)
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

// FuzzAxpy holds rowTerms — the multi-term axpy under every product,
// assembly on amd64, the portable loop elsewhere and under -tags purego —
// to the scalar loop, one term at a time. The first byte picks up
// to 39 terms, the second how many rows b has (1–4) and how far its stride
// runs past the row (0–2 elements, filled with canaries the routine must
// not read); the rest are floats: half the initial dst, half a source row
// each row of b is a rotation of, and the pool the coefficients are drawn
// from. The check is same bits (any NaN for a NaN), b untouched, and canary
// elements either side of dst and of b intact, at an even and an odd element
// offset.
func FuzzAxpy(f *testing.F) {
	seed := func(nt, shape byte, vals ...float64) []byte {
		b := []byte{nt, shape}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(0, 0))
	f.Add(seed(1, 0, 1, 2))
	f.Add(seed(3, 5, 0.5, 1, math.Copysign(0, -1), 5e-324, 0, math.Inf(1), math.NaN(), 2))
	long := make([]float64, 2*37)
	for i := range long {
		long[i] = float64(i) - 17.25
	}
	f.Add(seed(17, 7, long...))
	long[0] = math.Inf(-1)
	f.Add(seed(39, 11, long[:2*19]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nt, nr, pad := int(data[0]%40), 1+int(data[1]%4), int(data[1]/4%3)
		data = data[2:]
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		n, stride := len(vals)/2, len(vals)/2+pad
		offs, coef := make([]int, nt), make([]float64, nt)
		for i := range offs {
			if len(data) > 0 {
				offs[i] = int(data[i%len(data)]) % nr * stride
			}
			coef[i] = 1
			if len(vals) > 0 {
				coef[i] = vals[(5*i+1)%len(vals)]
			}
		}
		for off := 1; off <= 2; off++ {
			dst, dstIntact := paddedDense(1, n, off)
			b, bIntact := paddedDense(nr, stride, off)
			want := make([]float64, n)
			copy(dst.data, vals[:n])
			copy(want, vals[:n])
			for r := 0; r < nr; r++ {
				row := b.Row(r)
				for j := range row {
					row[j] = math.Float64frombits(canary)
					if j < n {
						row[j] = vals[n+(j+3*r)%n]
					}
				}
			}
			bBefore := append([]float64(nil), b.data...)
			rowTerms(dst.data, b.data, offs, coef)
			for i, o := range offs {
				for j := range want {
					want[j] += coef[i] * bBefore[o+j]
				}
			}
			if i := sameBits(dst.data, want); i >= 0 {
				t.Fatalf("%d terms n=%d off=%d: element %d got %v want %v", nt, n, off, i, dst.data[i], want[i])
			}
			for i, v := range b.data {
				if math.Float64bits(v) != math.Float64bits(bBefore[i]) {
					t.Fatalf("%d terms n=%d off=%d: b[%d] was written", nt, n, off, i)
				}
			}
			if !dstIntact() || !bIntact() {
				t.Fatalf("%d terms n=%d off=%d: wrote outside the operands", nt, n, off)
			}
		}
	})
}
