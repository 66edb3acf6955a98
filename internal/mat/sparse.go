package mat

import "fmt"

// CSR is a compressed sparse row matrix. It is used for normalised graph
// adjacency operators (Â in GCN, the aggregation operator in GIN/MAGNN),
// which stay fixed during training so no gradient flows through them.
type CSR struct {
	rows, cols int
	indptr     []int
	indices    []int
	vals       []float64
}

// NewCSR builds a CSR matrix from coordinate triplets. Duplicate coordinates
// are summed. Entries must have valid indices.
func NewCSR(rows, cols int, is, js []int, vs []float64) *CSR {
	if len(is) != len(js) || len(is) != len(vs) {
		panic("mat: NewCSR triplet length mismatch")
	}
	counts := make([]int, rows+1)
	for _, i := range is {
		if i < 0 || i >= rows {
			panic(fmt.Sprintf("mat: NewCSR row %d out of range %d", i, rows))
		}
		counts[i+1]++
	}
	for i := 0; i < rows; i++ {
		counts[i+1] += counts[i]
	}
	indptr := counts
	indices := make([]int, len(is))
	vals := make([]float64, len(is))
	fill := make([]int, rows)
	for k, i := range is {
		j := js[k]
		if j < 0 || j >= cols {
			panic(fmt.Sprintf("mat: NewCSR col %d out of range %d", j, cols))
		}
		pos := indptr[i] + fill[i]
		indices[pos] = j
		vals[pos] = vs[k]
		fill[i]++
	}
	m := &CSR{rows: rows, cols: cols, indptr: indptr, indices: indices, vals: vals}
	m.sumDuplicates()
	return m
}

// sumDuplicates merges repeated (i,j) entries within each row.
func (m *CSR) sumDuplicates() {
	newIndptr := make([]int, m.rows+1)
	newIndices := m.indices[:0]
	newVals := m.vals[:0]
	pos := 0
	// Rows are short (graph degree ≤ 50); simple insertion merge, in one
	// buffer for every row.
	type ent struct {
		j int
		v float64
	}
	var row []ent
	for i := 0; i < m.rows; i++ {
		start, end := m.indptr[i], m.indptr[i+1]
		row = row[:0]
		for k := start; k < end; k++ {
			j, v := m.indices[k], m.vals[k]
			merged := false
			for t := range row {
				if row[t].j == j {
					row[t].v += v
					merged = true
					break
				}
			}
			if !merged {
				row = append(row, ent{j, v})
			}
		}
		for _, e := range row {
			newIndices = append(newIndices, e.j)
			newVals = append(newVals, e.v)
			pos++
		}
		newIndptr[i+1] = pos
	}
	m.indptr = newIndptr
	m.indices = newIndices
	m.vals = newVals
}

// Dims returns the matrix dimensions.
func (m *CSR) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// RowNZ iterates the non-zeros of row i.
func (m *CSR) RowNZ(i int, fn func(j int, v float64)) {
	for k := m.indptr[i]; k < m.indptr[i+1]; k++ {
		fn(m.indices[k], m.vals[k])
	}
}

// Row returns views of row i's column indices and values, in stored order
// (NewCSR's: first occurrence of each coordinate in the triplet list). The
// caller must not modify them.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.indptr[i], m.indptr[i+1]
	return m.indices[lo:hi], m.vals[lo:hi]
}

// Remake retargets m at caller-owned CSR arrays without copying, the sparse
// counterpart of Dense.Remake: indptr has rows+1 ascending offsets into
// indices and vals, and no row repeats a column (nothing is merged or
// checked beyond the lengths and the column range, which SpMMTo's row
// routine relies on). A caller that rebuilds an operator of the same shape
// many times keeps one CSR and three slices for all of them.
func (m *CSR) Remake(rows, cols int, indptr, indices []int, vals []float64) {
	if len(indptr) != rows+1 || len(indices) != len(vals) || indptr[rows] != len(vals) {
		panic(fmt.Sprintf("mat: CSR.Remake %d rows with %d offsets, %d indices, %d values",
			rows, len(indptr), len(indices), len(vals)))
	}
	for _, j := range indices {
		if uint(j) >= uint(cols) {
			panic(fmt.Sprintf("mat: CSR.Remake column %d out of range %d", j, cols))
		}
	}
	m.rows, m.cols = rows, cols
	m.indptr, m.indices, m.vals = indptr, indices, vals
}

// T returns the transpose as a new CSR matrix: a counting sort of the
// entries by column. Rows of m are visited in ascending order, so row j of
// the result lists its entries by ascending i — the order NewCSR would give
// the same triplets, which fixes the summation order of an SpMM over it —
// and m holds no duplicate coordinates (NewCSR merged them), so neither
// does the result.
func (m *CSR) T() *CSR {
	indptr := make([]int, m.cols+1)
	for _, j := range m.indices {
		indptr[j+1]++
	}
	for j := 0; j < m.cols; j++ {
		indptr[j+1] += indptr[j]
	}
	indices := make([]int, len(m.indices))
	vals := make([]float64, len(m.vals))
	next := append([]int(nil), indptr[:m.cols]...)
	for i := 0; i < m.rows; i++ {
		for k := m.indptr[i]; k < m.indptr[i+1]; k++ {
			p := next[m.indices[k]]
			next[m.indices[k]]++
			indices[p], vals[p] = i, m.vals[k]
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, indptr: indptr, indices: indices, vals: vals}
}

// SpMMTo computes dst = S·B where S is sparse and B, dst are dense.
func SpMMTo(dst *Dense, s *CSR, b *Dense) {
	if s.cols != b.rows {
		panic(fmt.Sprintf("mat: SpMM %dx%d by %dx%d", s.rows, s.cols, b.rows, b.cols))
	}
	if dst.rows != s.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: SpMMTo dst %dx%d want %dx%d", dst.rows, dst.cols, s.rows, b.cols))
	}
	checkNoAlias("SpMMTo", dst, b)
	dst.Zero()
	var t terms
	for i := 0; i < s.rows; i++ {
		cols, vals := s.Row(i)
		for len(cols) > 0 { // every stored entry is a term: SpMM never skipped
			n := min(len(cols), termChunk)
			for k, j := range cols[:n] {
				t.offs[k] = j * b.cols
			}
			rowTerms(dst.Row(i), b.data, t.offs[:n], vals[:n])
			cols, vals = cols[n:], vals[n:]
		}
	}
}

// ToDense expands the sparse matrix into dense form (for tests).
func (m *CSR) ToDense() *Dense {
	out := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		m.RowNZ(i, func(j int, v float64) { out.Add(i, j, v) })
	}
	return out
}
