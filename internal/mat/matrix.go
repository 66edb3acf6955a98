// Package mat implements the dense linear-algebra kernel used throughout
// FexIoT: matrices, vectors, BLAS-like products, linear solvers and the
// statistics helpers needed by the learning substrates. It is deliberately
// small, allocation-conscious and dependency-free.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps an existing backing slice; len(data) must equal r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Data exposes the backing slice in row-major order.
func (m *Dense) Data() []float64 { return m.data }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at row i, column j by v.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view of row i (shared backing memory).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d want %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Zero resets every element to 0 in place.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom %dx%d into %dx%d", src.rows, src.cols, m.rows, m.cols))
	}
	copy(m.data, src.data)
}

// Scale multiplies every element by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	countDispatch()
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddScaled performs m += s*b element-wise in place and returns m.
func (m *Dense) AddScaled(b *Dense, s float64) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: AddScaled %dx%d with %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	countDispatch()
	off, coef := [1]int{}, [1]float64{s}
	rowTerms(m.data, b.data, off[:], coef[:])
	return m
}

// Apply replaces each element x with f(x) in place and returns m.
func (m *Dense) Apply(f func(float64) float64) *Dense {
	countDispatch()
	for i, v := range m.data {
		m.data[i] = f(v)
	}
	return m
}

// ReLUTo writes max(x, 0) of every element of src into dst (same shape; dst
// may be src) in one pass. An element is kept exactly when x > 0, so NaN,
// −0 and every negative map to +0 — what Apply with the comparison as a
// function value gave, without the call per element. It keeps v as a mask
// over the bits rather than a store on either side of a branch: half of a
// hidden activation is negative in no order a predictor learns, and the
// compiler turns the mask's condition into a conditional move.
func ReLUTo(dst, src *Dense) {
	if dst.rows != src.rows || dst.cols != src.cols {
		panic(fmt.Sprintf("mat: ReLUTo %dx%d into %dx%d", src.rows, src.cols, dst.rows, dst.cols))
	}
	countDispatch()
	d := dst.data[:len(src.data)]
	for i, v := range src.data {
		var keep uint64
		if v > 0 {
			keep = ^uint64(0)
		}
		d[i] = math.Float64frombits(math.Float64bits(v) & keep)
	}
}

// SumRowsTo sets dst to Σᵢ s·(row i of a), rows ascending from +0: the
// terms of one product row whose coefficients are all s, so each element
// receives what a.rows Axpy calls from a cleared dst gave it, bit for bit,
// held in registers across the rows. As in MulTo, a zero s drops every row.
// dst must be a.cols long and must not overlap a.
func SumRowsTo(dst []float64, a *Dense, s float64) {
	checkRowDst("SumRowsTo", dst, a)
	var t terms
	coef := [1]float64{s}
	t.product(dst, coef[:], 0, 0, a.rows, a)
}

// MaxRowsTo sets dst to the column-wise maximum of a's rows: row 0, then
// every later element that is strictly greater. So a NaN in row 0 is kept,
// a NaN in a later row is never taken, and of equal values (±0 included)
// the earliest row's stays: the column scan `if v > best`, which
// rowmax_amd64.s computes without a branch. a must have at least one row;
// dst must be a.cols long and must not overlap a.
func MaxRowsTo(dst []float64, a *Dense) {
	checkRowDst("MaxRowsTo", dst, a)
	copy(dst, a.Row(0))
	rowMax(dst, a.data[a.cols:])
}

func checkRowDst(op string, dst []float64, a *Dense) {
	if len(dst) != a.cols {
		panic(fmt.Sprintf("mat: %s dst length %d want %d", op, len(dst), a.cols))
	}
	if sharesBacking(dst, a.data) {
		panic("mat: " + op + ": dst shares backing memory with the input")
	}
}

// Equalish reports whether m and b agree element-wise within tol.
func (m *Dense) Equalish(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.data {
		s += v
	}
	return s
}

// String renders a small matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows && i < 6; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols && j < 8; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		if m.cols > 8 {
			b.WriteString(" …")
		}
	}
	if m.rows > 6 {
		b.WriteString("; …")
	}
	b.WriteByte(']')
	return b.String()
}

// Mul computes C = A·B into a new matrix.
func Mul(a, b *Dense) *Dense {
	c := NewDense(a.rows, b.cols)
	MulTo(c, a, b)
	return c
}

// MulTo computes dst = A·B; dst must be a.rows×b.cols and must not share
// backing memory with a or b (checked, panics on aliasing). Row i of dst is
// row i of A's terms over the rows of B.
func MulTo(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTo dst %dx%d want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	checkNoAlias("MulTo", dst, a, b)
	countFLOPs(2 * a.rows * a.cols * b.cols)
	countDispatch()
	var t terms
	for i := 0; i < a.rows; i++ {
		t.product(dst.Row(i), a.data, i*a.cols, 1, a.cols, b)
	}
}

// termChunk is how many terms a caller stages on the stack before one
// rowTerms call; a longer inner dimension or CSR row takes one call per chunk.
const termChunk = 128

// terms is that stack buffer: each term's offset into B and coefficient.
type terms struct {
	offs [termChunk]int
	coef [termChunk]float64
}

// product sets dst to Σ a[off+k·step]·(row k of b) over k < nk, in ascending
// k from +0 — row i of A (off i·cols, step 1), column i (off i, step cols)
// or one coefficient for every row (off 0, step 0: SumRowsTo).
// A term whose coefficient is ±0 is dropped, exactly what the scalar kernels'
// `av == 0` skip dropped (NaN stays), but without a branch per term: every
// term is written and the count only advances past a non-zero one.
func (t *terms) product(dst, a []float64, off, step, nk int, b *Dense) {
	clear(dst)
	// rowTerms visits a chunk's rows of B in turn for every slab of dst. On
	// rows wider than 64 elements a full chunk spans so many pages that the
	// visits miss the TLB and outrun the prefetchers (a 512-wide product ran
	// 1.4 × slower at 128 terms a chunk than at 16), so a chunk's rows are
	// held to 64 KB of B, 16 terms at the least.
	chunk := min(termChunk, max(16, 8192/max(b.cols, 1)))
	for k0 := 0; k0 < nk; k0 += chunk {
		n, p, end := 0, off+k0*step, min(k0+chunk, nk)
		for k := k0; k < end; k++ {
			av := a[p]
			p += step
			// n ≤ k−k0 < termChunk: the mask only spares the bounds check.
			t.offs[n&(termChunk-1)], t.coef[n&(termChunk-1)] = k*b.cols, av
			nz := math.Float64bits(av) << 1 // 0 exactly for ±0
			n += int((nz | -nz) >> 63)
		}
		rowTerms(dst, b.data, t.offs[:n], t.coef[:n])
	}
}

// MulTTo computes dst = Aᵀ·B without materialising the transpose; dst must
// not share backing memory with a or b (checked, panics on aliasing). Row i
// of dst is column i of A's terms over the rows of B.
func MulTTo(dst, a, b *Dense) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: MulT %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: MulTTo dst %dx%d want %dx%d", dst.rows, dst.cols, a.cols, b.cols))
	}
	checkNoAlias("MulTTo", dst, a, b)
	countFLOPs(2 * a.rows * a.cols * b.cols)
	countDispatch()
	var t terms
	for i := 0; i < a.cols; i++ {
		t.product(dst.Row(i), a.data, i, a.cols, a.rows, b)
	}
}

// MulBTTo computes dst = A·Bᵀ without materialising the transpose; dst
// must not share backing memory with a or b (checked, panics on aliasing).
// It computes four output columns per pass over a row of A. Each of the
// four accumulators is its own dot product — started at +0 and summed in
// ascending k, with no zero-skip, exactly as the one-column tail does — so
// the pass only interleaves four independent add chains the CPU can
// overlap; no output's rounding changes.
func MulBTTo(dst, a, b *Dense) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: MulBT %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("mat: MulBTTo dst %dx%d want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	checkNoAlias("MulBTTo", dst, a, b)
	countFLOPs(2 * a.rows * a.cols * b.rows)
	countDispatch()
	for i := 0; i < a.rows; i++ {
		ai := a.Row(i)
		di := dst.Row(i)
		j := 0
		for ; j+4 <= b.rows; j += 4 {
			b0, b1 := b.Row(j)[:len(ai)], b.Row(j + 1)[:len(ai)]
			b2, b3 := b.Row(j + 2)[:len(ai)], b.Row(j + 3)[:len(ai)]
			var s0, s1, s2, s3 float64
			for k, av := range ai {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		}
		for ; j < b.rows; j++ {
			bj := b.Row(j)
			var s float64
			for k, av := range ai {
				s += av * bj[k]
			}
			di[j] = s
		}
	}
}
