package gnn

import (
	"fmt"
	"slices"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// MAGNN is the heterogeneous graph model used on the five-platform dataset
// (Fu et al., WWW 2020). Faithful to the metapath-aggregation idea at the
// scale of interaction graphs, it (i) projects each node type — word-space
// nodes (300-d app descriptions) and sentence-space nodes (512-d voice
// commands) — into a shared latent space with type-specific transforms, and
// (ii) aggregates separately along the two relation types (direct
// device-state edges and environmental edges), which are the metapaths of
// the interaction schema, before combining them with a self transform.
type MAGNN struct {
	WordDim   int
	SentDim   int
	HiddenDim int
	OutDim    int
	NumLayers int

	params *autodiff.ParamSet
	names  []magnnNames // per aggregation layer, formatted once, as GIN's are
}

// magnnNames are one aggregation layer's parameter names.
type magnnNames struct{ self, direct, env, b string }

// NewMAGNN builds the model.
func NewMAGNN(wordDim, sentDim, hiddenDim, outDim int, seed int64) *MAGNN {
	m := &MAGNN{WordDim: wordDim, SentDim: sentDim, HiddenDim: hiddenDim,
		OutDim: outDim, NumLayers: 2}
	r := rng.New(seed)
	p := autodiff.NewParamSet()
	// Layer 0: type-specific input projections.
	p.Register("proj.word", 0, r.Glorot(wordDim, hiddenDim))
	p.Register("proj.sent", 0, r.Glorot(sentDim, hiddenDim))
	p.Register("proj.b", 0, mat.NewDense(1, hiddenDim))
	// Relation-aware aggregation layers.
	for l := 0; l < m.NumLayers; l++ {
		layer := l + 1
		n := magnnNames{
			self: fmt.Sprintf("agg%d.self", l), direct: fmt.Sprintf("agg%d.direct", l),
			env: fmt.Sprintf("agg%d.env", l), b: fmt.Sprintf("agg%d.b", l),
		}
		m.names = append(m.names, n)
		p.Register(n.self, layer, r.Glorot(hiddenDim, hiddenDim))
		p.Register(n.direct, layer, r.Glorot(hiddenDim, hiddenDim))
		p.Register(n.env, layer, r.Glorot(hiddenDim, hiddenDim))
		p.Register(n.b, layer, mat.NewDense(1, hiddenDim))
	}
	p.Register("out.w", m.NumLayers+1, r.Glorot(2*hiddenDim, outDim))
	m.params = p
	return m
}

// Params returns the weight set.
func (m *MAGNN) Params() *autodiff.ParamSet { return m.params }

// EmbedDim returns the embedding width.
func (m *MAGNN) EmbedDim() int { return m.OutDim }

// Fresh returns a new MAGNN with the same shape.
func (m *MAGNN) Fresh(seed int64) Model {
	return NewMAGNN(m.WordDim, m.SentDim, m.HiddenDim, m.OutDim, seed)
}

// Forward builds the embedding computation for one heterogeneous graph.
func (m *MAGNN) Forward(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	return forward(m, t, b, g)
}

// input is the type projection ReLU(X_word·W_word + X_sent·W_sent + b) of
// g's nodes.
func (m *MAGNN) input(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	return m.project(t, b, g.Nodes, g.N())
}

// project is the type projection of rows: X_space has the space's rows'
// features, padded or truncated to its width, and zero rows, which MulTo
// skips, for the other space's rows and the n − len(rows) past them. A
// space with no row adds no term, so its weight gets no gradient.
func (m *MAGNN) project(t *autodiff.Tape, b *autodiff.Binder, rows []graph.Node, n int) *autodiff.Node {
	var h *autodiff.Node
	for space, w := range [2]string{"proj.word", "proj.sent"} {
		in := func(n graph.Node) bool { return (n.Space == graph.SentenceSpace) == (space == 1) }
		if !slices.ContainsFunc(rows, in) {
			continue
		}
		p := t.MatMul(features(t, rows, n, [2]int{m.WordDim, m.SentDim}[space], in), b.Node(w))
		if h != nil {
			p = t.Add(h, p)
		}
		h = p
	}
	if h == nil {
		return t.Zeros(n, m.HiddenDim)
	}
	return t.ReLU(t.AddRowBroadcast(h, b.Node("proj.b")))
}

// operators are the self term's identity, its own parent, and the direct
// and environmental edges' row-normalised undirected adjacencies.
func (m *MAGNN) operators(g *graph.Graph) (ops, parents operators) {
	self, ones := make([]int, g.N()), make([]float64, g.N())
	for i := range self {
		self[i], ones[i] = i, 1
	}
	ops[0] = mat.NewCSR(g.N(), g.N(), self, self, ones)
	parents[0] = ops[0]
	for k, kind := range [2]rules.MatchKind{rules.DirectMatch, rules.EnvMatch} {
		is, js := make([]int, 0, 2*len(g.Edges)), make([]int, 0, 2*len(g.Edges))
		for _, e := range g.Edges {
			if e.Kind == kind {
				is, js = append(is, e.From, e.To), append(js, e.To, e.From)
			}
		}
		ops[k+1], parents[k+1] = adjacency(g.N(), is, js)
	}
	return ops, parents
}

// adjacency is the n×n operator with 1/deg(i) at each (is[k], js[k]),
// which NewCSR sums where a coordinate repeats (a self-loop edge, an edge
// each way). Its parent counts the repeats, which a coalition's 1/deg needs.
func adjacency(n int, is, js []int) (op, parent *mat.CSR) {
	deg := make([]float64, n)
	for _, i := range is {
		deg[i]++
	}
	vs, ones := make([]float64, len(is)), make([]float64, len(is))
	for k, i := range is {
		vs[k], ones[k] = 1/deg[i], 1
	}
	return mat.NewCSR(n, n, is, js, vs), mat.NewCSR(n, n, is, js, ones)
}

// renormalise computes adjacency's coefficients over a coalition from its
// parent's counts: a row's degree is the sum of its counts, and an entry's
// coefficient is 1/deg added once a count, the sum NewCSR makes.
func (m *MAGNN) renormalise(indptr, _ []int, vals []float64) {
	for r := 0; r+1 < len(indptr); r++ {
		row, deg := vals[indptr[r]:indptr[r+1]], 0.0
		for _, c := range row {
			deg += c
		}
		for i, c := range row {
			for row[i] = 0; c > 0; c-- {
				row[i] += 1 / deg
			}
		}
	}
}

func (m *MAGNN) width() int { return m.HiddenDim }
func (m *MAGNN) depth() int { return m.NumLayers }

// layer is aggregation layer l: ReLU(H·W_self + (A_direct·H)·W_direct +
// (A_env·H)·W_env + b), the terms added in that order.
func (m *MAGNN) layer(l int, t *autodiff.Tape, b *autodiff.Binder, agg aggs) *autodiff.Node {
	n := m.names[l]
	self := t.MatMul(agg[0], b.Node(n.self))
	dir := t.MatMul(agg[1], b.Node(n.direct))
	env := t.MatMul(agg[2], b.Node(n.env))
	return t.ReLU(t.AddRowBroadcast(t.Add(t.Add(self, dir), env), b.Node(n.b)))
}

// readout pools the last layer's output, mean and max, projected to the
// output width; the layers below it add nothing.
func (m *MAGNN) readout(l int, t *autodiff.Tape, b *autodiff.Binder, h, _ *autodiff.Node) *autodiff.Node {
	if l < m.NumLayers-1 {
		return nil
	}
	return t.MatMul(t.ConcatCols(t.MeanRows(h), t.MaxRows(h)), b.Node("out.w"))
}
