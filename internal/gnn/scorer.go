package gnn

import (
	"encoding/binary"
	"math"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
)

// memoMaxRows bounds the first-layer rows one explanation remembers; past
// it rows are computed and not stored. At the paper's hidden width a full
// memo is 2 MB; a 16-node search fills a few hundred rows.
const memoMaxRows = 4096

// rowwise is a model whose first layer is an aggregation S·X followed by a
// head that computes each output row from its own aggregated row only, so
// a row of the layer's output depends on nothing but the matching row of S.
// GIN and GCN are; their Forward is rest(head(S·X)).
type rowwise interface {
	Model
	// operator is the whole graph's aggregation operator S. A coalition's
	// operator has the rows of its members with the entries of its members,
	// in the same order: NewCSR keeps a row's entries in insertion order —
	// self loop first, then g.Edges order, which InducedSubgraph preserves.
	operator(g *graph.Graph) *mat.CSR
	// renormalise rewrites the coefficients of a coalition's operator, given
	// as CSR arrays carrying the whole graph's values, where they depend on
	// the coalition (GCN's in-coalition degrees).
	renormalise(indptr, indices []int, vals []float64)
	// widths are the input feature width and the head's output width.
	widths() (input, head int)
	head(t *autodiff.Tape, b *autodiff.Binder, agg *autodiff.Node) *autodiff.Node
	rest(t *autodiff.Tape, b *autodiff.Binder, op *mat.CSR, h *autodiff.Node) *autodiff.Node
}

func (m *GIN) operator(g *graph.Graph) *mat.CSR    { return g.CachedSumAdjacency(m.Eps) }
func (m *GIN) renormalise([]int, []int, []float64) {}
func (m *GIN) widths() (int, int)                  { return m.InputDim, m.HiddenDim }
func (m *GIN) head(t *autodiff.Tape, b *autodiff.Binder, agg *autodiff.Node) *autodiff.Node {
	return m.mlp(t, b, m.names[0], agg)
}

func (m *GCN) operator(g *graph.Graph) *mat.CSR { return g.CachedNormalizedAdjacency() }
func (m *GCN) widths() (int, int)               { return m.InputDim, m.HiddenDim }
func (m *GCN) head(t *autodiff.Tape, b *autodiff.Binder, agg *autodiff.Node) *autodiff.Node {
	return m.conv(t, b, 0, agg)
}

// renormalise recomputes D^{-1/2}(A + Aᵀ + I)D^{-1/2} for the coalition: a
// member's degree is the length of its row (the operator holds each
// neighbour once), as graph.NormalizedAdjacency counts it.
func (m *GCN) renormalise(indptr, indices []int, vals []float64) {
	for r := 0; r+1 < len(indptr); r++ {
		deg := float64(indptr[r+1] - indptr[r])
		for k := indptr[r]; k < indptr[r+1]; k++ {
			c := indices[k]
			vals[k] = 1.0 / (math.Sqrt(deg) * math.Sqrt(float64(indptr[c+1]-indptr[c])))
		}
	}
}

// ScorerStats counts what one GraphScorer did.
type ScorerStats struct {
	Calls        int // Score calls
	RowsReused   int // first-layer rows served from the memo
	RowsComputed int // first-layer rows computed
}

// GraphScorer scores node subsets of one graph for the explanation search
// (it implements explain.Scorer): Score(keep) is bit for bit
// Detector.Score(g.InducedSubgraph(keep)), and 0 for the empty subset. It
// holds one Workspace for all its scores and, for GIN and GCN, remembers
// the first layer's output rows: a memoised row is the same sum of the same
// products in the same order as a recomputed one, because the row's entries
// keep the whole graph's order whatever keep's order is, and every op
// between the aggregation and the layer's output is row-independent. Other
// models (MAGNN, whose first layer scatters per-type projections) are
// scored on masked copies of the graph, still on the one workspace.
//
// A GraphScorer lives for one explanation and is not safe for concurrent
// use; nothing in it is shared, so there is nothing to invalidate.
type GraphScorer struct {
	det    *Detector
	g      *graph.Graph
	ws     *Workspace
	pooled bool
	stats  ScorerStats

	first    rowwise // nil: black box
	parent   *mat.CSR
	features *mat.Dense
	width    int
	maxRows  int

	memo map[string]int // row key → index into rows
	rows []float64      // memoised rows, width apiece
	key  []byte

	pos               []int // node → 1 + its position in keep, 0 when absent
	indptr, indices   []int // the coalition's operator
	vals              []float64
	op                mat.CSR
	missRow, missSlot []int // coalition rows to compute, and their memo slots (−1: not stored)
	mIndptr, mIndices []int // the missing rows' operator over the whole graph's columns
	mVals             []float64
	missOp            mat.CSR
	h0                mat.Dense // the first layer's output for the coalition
	h0buf             []float64
}

// Scorer returns a scorer of g's node subsets on ws, or on a pooled
// workspace when ws is nil; Release hands a pooled one back.
func (d *Detector) Scorer(ws *Workspace, g *graph.Graph) *GraphScorer {
	s := &GraphScorer{det: d, g: g, ws: ws, maxRows: memoMaxRows}
	if ws == nil {
		s.ws, s.pooled = borrowWorkspace(), true
	}
	if m, ok := d.Model.(rowwise); ok && g.N() > 0 {
		s.first, s.parent = m, m.operator(g)
		in, width := m.widths()
		s.features, s.width = g.CachedPadFeatures(in), width
		s.memo = map[string]int{}
		s.pos = make([]int, g.N())
	}
	return s
}

// Release parks a pooled workspace; the scorer must not be used afterwards.
// A search that panicked does not get here, and its workspace is dropped.
func (s *GraphScorer) Release() {
	if s.pooled {
		s.ws.park()
		s.ws, s.pooled = nil, false
	}
}

// Stats reports the scorer's counters so far.
func (s *GraphScorer) Stats() ScorerStats { return s.stats }

// Score returns the vulnerability probability of the subgraph of g induced
// on keep (distinct node indices), nodes in keep's order.
func (s *GraphScorer) Score(keep []int) float64 {
	s.stats.Calls++
	if len(keep) == 0 {
		return 0
	}
	if s.first == nil {
		return s.det.Clf.Score(s.ws.Embed(s.det.Model, s.g.InducedSubgraph(keep)))
	}
	s.restrict(keep)
	s.lookup(keep)

	t, b := s.ws.tape, s.ws.binder
	t.Reset()
	b.Rebind(t, s.det.Model.Params())
	if len(s.missRow) > 0 {
		// One small SpMM against the whole graph's features and one head
		// for just the rows the memo lacks.
		s.missOp.Remake(len(s.missRow), s.g.N(), s.mIndptr, s.mIndices, s.mVals)
		out := s.first.head(t, b, t.SpMM(&s.missOp, t.Constant(s.features))).Value
		for k, r := range s.missRow {
			copy(s.h0.Row(r), out.Row(k))
			if slot := s.missSlot[k]; slot >= 0 {
				copy(s.rows[slot*s.width:(slot+1)*s.width], out.Row(k))
			}
		}
	}
	out := s.first.rest(t, b, &s.op, t.Constant(&s.h0))
	return s.det.Clf.Score(out.Value.Row(0))
}

// restrict builds the coalition's aggregation operator from the whole
// graph's: member rows, member entries, columns renumbered to positions in
// keep — what the model's operator method would return for
// g.InducedSubgraph(keep), without the subgraph.
func (s *GraphScorer) restrict(keep []int) {
	for r, v := range keep {
		s.pos[v] = r + 1
	}
	s.indptr = append(s.indptr[:0], 0)
	s.indices, s.vals = s.indices[:0], s.vals[:0]
	for _, v := range keep {
		cols, vals := s.parent.Row(v)
		for k, j := range cols {
			if p := s.pos[j]; p != 0 {
				s.indices = append(s.indices, p-1)
				s.vals = append(s.vals, vals[k])
			}
		}
		s.indptr = append(s.indptr, len(s.indices))
	}
	for _, v := range keep {
		s.pos[v] = 0
	}
	s.first.renormalise(s.indptr, s.indices, s.vals)
	s.op.Remake(len(keep), len(keep), s.indptr, s.indices, s.vals)
}

// lookup fills h0 with the memoised first-layer rows of the coalition and
// lists the rest in missRow, with their operator rows over the whole
// graph's columns in mIndptr/mIndices/mVals. A row's key is its node and
// the (neighbour, coefficient bits) sequence of its operator row — all its
// value depends on.
func (s *GraphScorer) lookup(keep []int) {
	n, w := len(keep), s.width
	if cap(s.h0buf) < n*w {
		s.h0buf = make([]float64, n*w)
	}
	s.h0.Remake(n, w, s.h0buf[:n*w])
	s.missRow, s.missSlot = s.missRow[:0], s.missSlot[:0]
	s.mIndptr = append(s.mIndptr[:0], 0)
	s.mIndices, s.mVals = s.mIndices[:0], s.mVals[:0]
	for r, v := range keep {
		lo, hi := s.indptr[r], s.indptr[r+1]
		key := binary.LittleEndian.AppendUint32(s.key[:0], uint32(v))
		for k := lo; k < hi; k++ {
			key = binary.LittleEndian.AppendUint32(key, uint32(keep[s.indices[k]]))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(s.vals[k]))
		}
		s.key = key
		if slot, ok := s.memo[string(key)]; ok {
			copy(s.h0.Row(r), s.rows[slot*w:(slot+1)*w])
			s.stats.RowsReused++
			continue
		}
		s.stats.RowsComputed++
		slot := -1
		if len(s.memo) < s.maxRows {
			slot = len(s.memo)
			s.memo[string(key)] = slot
			s.rows = append(s.rows, s.h0.Row(r)...) // room; filled once computed
		}
		s.missRow, s.missSlot = append(s.missRow, r), append(s.missSlot, slot)
		for k := lo; k < hi; k++ {
			s.mIndices = append(s.mIndices, keep[s.indices[k]])
		}
		s.mVals = append(s.mVals, s.vals[lo:hi]...)
		s.mIndptr = append(s.mIndptr, len(s.mIndices))
	}
}
