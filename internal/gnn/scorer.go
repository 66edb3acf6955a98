package gnn

import (
	"encoding/binary"
	"math"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
)

// memoMaxRows bounds the rows of one layer one explanation remembers; past
// it rows are computed and not stored. At the paper's hidden width a full
// layer is 2 MB; a 16-node search fills a few hundred rows of each.
const memoMaxRows = 4096

// memoChunk is the rows a layer's memo grows by. A chunk is never moved or
// outgrown, so what a search allocates for its rows is what it keeps.
const memoChunk = 16

// A layer's operators (unused ones nil) and their products with its input
// come in arrays of MAGNN's three, so GIN and GCN, with one, allocate none.
type operators [3]*mat.CSR
type aggs [3]*autodiff.Node

// rowwise is a model that is a per-node input map followed by depth()
// layers, each a few aggregations S_k·H followed by ops that compute each
// output row from its own aggregated rows only, so a row of a layer's
// output depends on nothing but the matching rows of the S_k and the input
// rows they name. GIN, GCN and MAGNN are; their Forward is forward.
//
// The input map is the first layer's projection of the node features
// (MAGNN's type projection; GIN's and GCN's first weight), applied before
// the first aggregation: S·(X·W) instead of (S·X)·W, the same sum
// reassociated, which projects each node once however many rows name it.
type rowwise interface {
	Model
	// input is the projection of g's nodes, one row a node.
	input(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node
	// project is input over rows that need not be one graph's nodes — a
	// training step's distinct rows — followed by n − len(rows) rows that
	// project a zero feature. Each output row is computed from its own row
	// alone, so a node's row of input is, bit for bit, its row's of
	// project.
	project(t *autodiff.Tape, b *autodiff.Binder, rows []graph.Node, n int) *autodiff.Node
	// operators are the whole graph's, and the parents a coalition's are
	// restricted from: its members' rows with its members' entries, in the
	// same order (NewCSR keeps a row's entries in insertion order — self
	// loop first, then g.Edges order, which InducedSubgraph preserves).
	operators(g *graph.Graph) (ops, parents operators)
	// renormalise rewrites the coefficients of a coalition's operator, given
	// as CSR arrays carrying its parent's values, where they depend on the
	// coalition (GCN's and MAGNN's degrees).
	renormalise(indptr, indices []int, vals []float64)
	width() int // every layer's output width
	depth() int
	// layer is layer l after its aggregations.
	layer(l int, t *autodiff.Tape, b *autodiff.Binder, agg aggs) *autodiff.Node
	// readout folds layer l's output h into acc, the readout of the layers
	// below (nil at layer 0); the last layer's is the embedding. It takes
	// the layers one at a time so that Forward's tape keeps each layer's
	// pooling between that layer and the next: the order gradients reach a
	// layer's output in is the order of the tape.
	readout(l int, t *autodiff.Tape, b *autodiff.Binder, h, acc *autodiff.Node) *autodiff.Node
}

// forward is Forward for a rowwise model.
func forward(m rowwise, t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	return propagate(m, t, b, g, m.input(t, b, g))
}

// propagate runs a rowwise model's layers and readout over g from h, its
// input map.
func propagate(m rowwise, t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph, h *autodiff.Node) *autodiff.Node {
	ops, _ := m.operators(g)
	var out *autodiff.Node
	for l := 0; l < m.depth(); l++ {
		var agg aggs
		for k := 0; k < len(ops) && ops[k] != nil; k++ {
			agg[k] = t.SpMM(ops[k], h)
		}
		h = m.layer(l, t, b, agg)
		out = m.readout(l, t, b, h, out)
	}
	return out
}

// GIN's and GCN's input map is the node features, padded or truncated to
// InputDim, times the first layer's weight: a graph's from its cached
// feature matrix, a step's rows' from a tape-owned copy.
func (m *GIN) input(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	return t.MatMul(t.Constant(g.CachedPadFeatures(m.InputDim)), b.Node(m.names[0].w1))
}
func (m *GIN) project(t *autodiff.Tape, b *autodiff.Binder, rows []graph.Node, n int) *autodiff.Node {
	return t.MatMul(features(t, rows, n, m.InputDim, nil), b.Node(m.names[0].w1))
}
func (m *GIN) operators(g *graph.Graph) (ops, parents operators) {
	ops[0] = g.CachedSumAdjacency(m.Eps)
	return ops, ops
}
func (m *GIN) renormalise([]int, []int, []float64) {}
func (m *GIN) width() int                          { return m.HiddenDim }
func (m *GIN) depth() int                          { return m.NumLayers }

func (m *GCN) input(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	return t.MatMul(t.Constant(g.CachedPadFeatures(m.InputDim)), b.Node(m.names[0].w))
}
func (m *GCN) project(t *autodiff.Tape, b *autodiff.Binder, rows []graph.Node, n int) *autodiff.Node {
	return t.MatMul(features(t, rows, n, m.InputDim, nil), b.Node(m.names[0].w))
}
func (m *GCN) operators(g *graph.Graph) (ops, parents operators) {
	ops[0] = g.CachedNormalizedAdjacency()
	return ops, ops
}
func (m *GCN) width() int { return m.HiddenDim }
func (m *GCN) depth() int { return m.NumConv }

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

// features is rows' features as a tape-owned n-row matrix, each padded
// with zeros or truncated to width as graph.PadFeatures lays a graph's out;
// a row that in (when not nil) leaves out, and every row past rows, stays
// zero.
func features(t *autodiff.Tape, rows []graph.Node, n, width int, in func(graph.Node) bool) *autodiff.Node {
	x := t.Zeros(n, width)
	for i, row := range rows {
		if in == nil || in(row) {
			copy(x.Value.Row(i), row.Feature)
		}
	}
	return x
}

// ScorerStats counts what one GraphScorer did. The row counts are per
// layer, bottom first.
type ScorerStats struct {
	Calls        int   // Score calls
	RowsReused   []int // rows served from the layer's memo
	RowsComputed []int // rows computed
}

// GraphScorer scores node subsets of one graph for the explanation search
// (it implements explain.Scorer): Score(keep) is bit for bit
// Detector.Score(g.InducedSubgraph(keep)), and 0 for the empty subset. It
// holds one Workspace for all its scores, computes the model's input map —
// the first layer's projection of every node — once, and remembers every
// layer's output rows: a memoised row is the same
// sum of the same products in the same order as a recomputed one, because
// the row's entries keep the whole graph's order whatever keep's order is,
// every op between the aggregations and the layer's output is
// row-independent, and the rows it reads are, by their own memo slots, the
// same bits.
//
// A GraphScorer lives for one explanation and is not safe for concurrent
// use; nothing in it is shared, so there is nothing to invalidate.
type GraphScorer struct {
	det    *Detector
	ws     *Workspace
	pooled bool
	stats  ScorerStats

	model    rowwise
	features *mat.Dense // the whole graph's input map, projected
	width    int
	maxRows  int
	layers   []layerMemo
	parents  []*mat.CSR // a layer's operators' parents
	key      []byte

	// The coalition's operators, one after another: operator k's row r is
	// row k·len(keep) + r.
	indptr, indices []int
	vals            []float64

	pos               []int // node → 1 + its position in keep, 0 when absent
	missRow           []int // coalition rows the layer at hand must compute
	mIndptr, mIndices []int // their rows of one operator, over the columns of the layer's input
	mVals             []float64
	missOp            mat.CSR
}

// layerMemo is one layer's memoised rows and its output for the coalition
// being scored.
type layerMemo struct {
	memo map[string]int // row key → the row's slot
	rows [][]float64    // memoised rows by slot, width apiece, memoChunk to a chunk
	slot []int          // coalition row → its slot, −1 when not stored
	h    mat.Dense      // the layer's output for the coalition
	hbuf []float64
}

// row is the memoised row in slot at.
func (ly *layerMemo) row(at, w int) []float64 {
	return ly.rows[at/memoChunk][(at%memoChunk)*w:][:w]
}

// Scorer returns a scorer of g's node subsets on ws, or on a pooled
// workspace when ws is nil; Release hands a pooled one back.
func (d *Detector) Scorer(ws *Workspace, g *graph.Graph) *GraphScorer {
	m := d.Model.(rowwise)
	s := &GraphScorer{det: d, ws: ws, model: m, width: m.width(), maxRows: memoMaxRows}
	if ws == nil {
		s.ws, s.pooled = borrowWorkspace(), true
	}
	s.ws.binder.Rebind(s.ws.tape, d.Model.Params())
	s.features = m.input(s.ws.tape, s.ws.binder, g).Value.Clone() // the tape's value dies at Score's Reset
	_, parents := m.operators(g)
	for k := 0; k < len(parents) && parents[k] != nil; k++ {
		s.parents = append(s.parents, parents[k])
	}
	s.layers = make([]layerMemo, m.depth())
	for l := range s.layers { // room for the largest coalition, every node
		s.layers[l] = layerMemo{memo: map[string]int{}, hbuf: make([]float64, g.N()*s.width)}
	}
	s.stats.RowsReused, s.stats.RowsComputed = make([]int, m.depth()), make([]int, m.depth())
	s.pos = make([]int, g.N())
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
	s.restrict(keep)

	t, b := s.ws.tape, s.ws.binder
	t.Reset()
	b.Rebind(t, s.det.Model.Params())
	input := t.Constant(s.features)
	var out *autodiff.Node
	for l := range s.layers {
		ly := &s.layers[l]
		s.lookup(l, keep)
		if len(s.missRow) > 0 {
			// One small SpMM an operator against the layer's input — the
			// whole graph's input map at layer 0, the coalition's previous
			// layer above it — and one layer for just the rows the memo lacks.
			var agg aggs
			for k := range s.parents {
				agg[k] = t.SpMM(s.missing(k, keep, l == 0, input.Value.Rows()), input)
			}
			got := s.model.layer(l, t, b, agg).Value
			for k, r := range s.missRow {
				copy(ly.h.Row(r), got.Row(k))
				if at := ly.slot[r]; at >= 0 {
					copy(ly.row(at, s.width), got.Row(k))
				}
			}
		}
		input = t.Constant(&ly.h)
		out = s.model.readout(l, t, b, input, out)
	}
	return s.det.Clf.Score(out.Value.Row(0))
}

// restrict builds the coalition's aggregation operators from their
// parents: member rows, member entries, columns renumbered to positions in
// keep, coefficients renormalised — what the model's operators method
// would return for g.InducedSubgraph(keep), without the subgraph.
func (s *GraphScorer) restrict(keep []int) {
	for r, v := range keep {
		s.pos[v] = r + 1
	}
	s.indptr = append(s.indptr[:0], 0)
	s.indices, s.vals = s.indices[:0], s.vals[:0]
	for _, parent := range s.parents {
		from := len(s.indptr) - 1
		for _, v := range keep {
			cols, vals := parent.Row(v)
			for k, j := range cols {
				if p := s.pos[j]; p != 0 {
					s.indices = append(s.indices, p-1)
					s.vals = append(s.vals, vals[k])
				}
			}
			s.indptr = append(s.indptr, len(s.indices))
		}
		s.model.renormalise(s.indptr[from:], s.indices, s.vals)
	}
	for _, v := range keep {
		s.pos[v] = 0
	}
}

// lookup fills layer l's output with the coalition's memoised rows and
// lists the rest in missRow. A row's key is the (input row, coefficient
// bits) sequence of its row of every operator — all its value depends on —
// each operator's closed by MaxUint32, which no input row's name equals.
// An input row is named by its node at layer 0, whose input is the whole
// graph's input map, and by its slot in the memo of the layer below above
// that: a slot is filled once, so it names the row's bits. A row reading an
// input without a slot (the layer below was full) has no key; it is
// computed and not stored.
func (s *GraphScorer) lookup(l int, keep []int) {
	ly, n, w := &s.layers[l], len(keep), s.width
	ly.h.Remake(n, w, ly.hbuf[:n*w])
	ly.slot = ly.slot[:0]
	ids := keep
	if l > 0 {
		ids = s.layers[l-1].slot
	}
	s.missRow = s.missRow[:0]
	for r := range keep {
		key, keyed := s.key[:0], true
		for row := r; row < len(s.indptr)-1 && keyed; row += n {
			for i := s.indptr[row]; i < s.indptr[row+1] && keyed; i++ {
				id := ids[s.indices[i]]
				key = binary.LittleEndian.AppendUint32(key, uint32(id))
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(s.vals[i]))
				keyed = id >= 0
			}
			key = binary.LittleEndian.AppendUint32(key, math.MaxUint32)
		}
		s.key = key
		at := -1
		if keyed {
			if hit, ok := ly.memo[string(key)]; ok {
				copy(ly.h.Row(r), ly.row(hit, w))
				ly.slot = append(ly.slot, hit)
				s.stats.RowsReused[l]++
				continue
			}
			if len(ly.memo) < s.maxRows {
				at = len(ly.memo)
				ly.memo[string(key)] = at
				if at%memoChunk == 0 { // room; Score fills it once computed
					ly.rows = append(ly.rows, make([]float64, memoChunk*w))
				}
			}
		}
		s.stats.RowsComputed[l]++
		ly.slot = append(ly.slot, at)
		s.missRow = append(s.missRow, r)
	}
}

// missing is operator k's missRow rows, over the columns of a layer input
// of cols rows: positions in keep, or, for the whole graph's input map,
// nodes. The operator is read by one SpMM before the next call reuses it.
func (s *GraphScorer) missing(k int, keep []int, nodes bool, cols int) *mat.CSR {
	s.mIndptr = append(s.mIndptr[:0], 0)
	s.mIndices, s.mVals = s.mIndices[:0], s.mVals[:0]
	for _, r := range s.missRow {
		lo, hi := s.indptr[k*len(keep)+r], s.indptr[k*len(keep)+r+1]
		for _, col := range s.indices[lo:hi] {
			if nodes {
				col = keep[col]
			}
			s.mIndices = append(s.mIndices, col)
		}
		s.mVals = append(s.mVals, s.vals[lo:hi]...)
		s.mIndptr = append(s.mIndptr, len(s.mIndices))
	}
	s.missOp.Remake(len(s.missRow), cols, s.mIndptr, s.mIndices, s.mVals)
	return &s.missOp
}
