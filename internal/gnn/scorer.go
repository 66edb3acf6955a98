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

// rowwise is a model that is depth() layers, each an aggregation S·H
// followed by ops that compute each output row from its own aggregated row
// only, so a row of a layer's output depends on nothing but the matching
// row of S and the input rows it names. GIN and GCN are; their Forward is
// forward.
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
	// widths are the input feature width and every layer's output width.
	widths() (input, hidden int)
	depth() int
	// layer is layer l after its aggregation agg.
	layer(l int, t *autodiff.Tape, b *autodiff.Binder, agg *autodiff.Node) *autodiff.Node
	// readout folds layer l's output h into acc, the readout of the layers
	// below (nil at layer 0); the last layer's is the embedding. It takes
	// the layers one at a time so that Forward's tape keeps each layer's
	// pooling between that layer and the next: the order gradients reach a
	// layer's output in is the order of the tape.
	readout(l int, t *autodiff.Tape, b *autodiff.Binder, h, acc *autodiff.Node) *autodiff.Node
}

// forward is Forward for a rowwise model.
func forward(m rowwise, t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	op := m.operator(g)
	in, _ := m.widths()
	h := t.Constant(g.CachedPadFeatures(in))
	var out *autodiff.Node
	for l := 0; l < m.depth(); l++ {
		h = m.layer(l, t, b, t.SpMM(op, h))
		out = m.readout(l, t, b, h, out)
	}
	return out
}

func (m *GIN) operator(g *graph.Graph) *mat.CSR    { return g.CachedSumAdjacency(m.Eps) }
func (m *GIN) renormalise([]int, []int, []float64) {}
func (m *GIN) widths() (int, int)                  { return m.InputDim, m.HiddenDim }
func (m *GIN) depth() int                          { return m.NumLayers }

func (m *GCN) operator(g *graph.Graph) *mat.CSR { return g.CachedNormalizedAdjacency() }
func (m *GCN) widths() (int, int)               { return m.InputDim, m.HiddenDim }
func (m *GCN) depth() int                       { return m.NumConv }

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

// ScorerStats counts what one GraphScorer did. The row counts are per layer
// of a GIN or GCN, bottom first, and nil for a black box.
type ScorerStats struct {
	Calls        int   // Score calls
	RowsReused   []int // rows served from the layer's memo
	RowsComputed []int // rows computed
}

// GraphScorer scores node subsets of one graph for the explanation search
// (it implements explain.Scorer): Score(keep) is bit for bit
// Detector.Score(g.InducedSubgraph(keep)), and 0 for the empty subset. It
// holds one Workspace for all its scores and, for GIN and GCN, remembers
// every layer's output rows: a memoised row is the same sum of the same
// products in the same order as a recomputed one, because the row's entries
// keep the whole graph's order whatever keep's order is, every op between
// the aggregation and the layer's output is row-independent, and the rows
// it reads are, by their own memo slots, the same bits. Other models
// (MAGNN, whose first layer scatters per-type projections) are scored on
// masked copies of the graph, still on the one workspace.
//
// A GraphScorer lives for one explanation and is not safe for concurrent
// use; nothing in it is shared, so there is nothing to invalidate.
type GraphScorer struct {
	det    *Detector
	g      *graph.Graph
	ws     *Workspace
	pooled bool
	stats  ScorerStats

	model    rowwise // nil: black box
	parent   *mat.CSR
	features *mat.Dense
	width    int
	maxRows  int
	layers   []layerMemo
	key      []byte

	pos               []int // node → 1 + its position in keep, 0 when absent
	indptr, indices   []int // the coalition's operator
	vals              []float64
	missRow           []int // coalition rows the layer at hand must compute
	mIndptr, mIndices []int // their operator, over the columns of the layer's input
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
	s := &GraphScorer{det: d, g: g, ws: ws, maxRows: memoMaxRows}
	if ws == nil {
		s.ws, s.pooled = borrowWorkspace(), true
	}
	if m, ok := d.Model.(rowwise); ok && g.N() > 0 {
		s.model, s.parent = m, m.operator(g)
		in, width := m.widths()
		s.features, s.width = g.CachedPadFeatures(in), width
		s.layers = make([]layerMemo, m.depth())
		for l := range s.layers { // room for the largest coalition, every node
			s.layers[l] = layerMemo{memo: map[string]int{}, hbuf: make([]float64, g.N()*width)}
		}
		s.stats.RowsReused, s.stats.RowsComputed = make([]int, m.depth()), make([]int, m.depth())
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
	if s.model == nil {
		return s.det.Clf.Score(s.ws.Embed(s.det.Model, s.g.InducedSubgraph(keep)))
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
			// One small SpMM against the layer's input — the whole graph's
			// features at layer 0, the coalition's previous layer above it —
			// and one layer for just the rows the memo lacks.
			s.missOp.Remake(len(s.missRow), input.Value.Rows(), s.mIndptr, s.mIndices, s.mVals)
			got := s.model.layer(l, t, b, t.SpMM(&s.missOp, input)).Value
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
	s.model.renormalise(s.indptr, s.indices, s.vals)
}

// lookup fills layer l's output with the coalition's memoised rows and
// lists the rest in missRow, with their operator rows in
// mIndptr/mIndices/mVals. A row's key is the (input row, coefficient bits)
// sequence of its operator row — all its value depends on — where an input
// row is named by its node at layer 0, whose input is the features, and by
// its slot in the memo of the layer below above that: a slot is filled
// once, so it names the row's bits. A row reading an input without a slot
// (the layer below was full) has no key; it is computed and not stored.
func (s *GraphScorer) lookup(l int, keep []int) {
	ly, n, w := &s.layers[l], len(keep), s.width
	ly.h.Remake(n, w, ly.hbuf[:n*w])
	ly.slot = ly.slot[:0]
	ids := keep
	if l > 0 {
		ids = s.layers[l-1].slot
	}
	s.missRow = s.missRow[:0]
	s.mIndptr = append(s.mIndptr[:0], 0)
	s.mIndices, s.mVals = s.mIndices[:0], s.mVals[:0]
	for r := range keep {
		lo, hi := s.indptr[r], s.indptr[r+1]
		key, keyed := s.key[:0], true
		for k := lo; k < hi && keyed; k++ {
			id := ids[s.indices[k]]
			key = binary.LittleEndian.AppendUint32(key, uint32(id))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(s.vals[k]))
			keyed = id >= 0
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
		for k := lo; k < hi; k++ {
			col := s.indices[k] // the input's row: a position in keep, a node at layer 0
			if l == 0 {
				col = keep[col]
			}
			s.mIndices = append(s.mIndices, col)
		}
		s.mVals = append(s.mVals, s.vals[lo:hi]...)
		s.mIndptr = append(s.mIndptr, len(s.mIndices))
	}
}
