package gnn

import (
	"fmt"

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

// kindAdjacency builds the row-normalised undirected adjacency over edges of
// one relation kind (no self loops; the self transform handles identity).
func kindAdjacency(g *graph.Graph, kind rules.MatchKind) *mat.CSR {
	n := g.N()
	var is, js []int
	for _, e := range g.Edges {
		if e.Kind != kind {
			continue
		}
		is = append(is, e.From, e.To)
		js = append(js, e.To, e.From)
	}
	deg := make([]float64, n)
	for _, i := range is {
		deg[i]++
	}
	vs := make([]float64, len(is))
	for k := range is {
		vs[k] = 1 / deg[is[k]]
	}
	return mat.NewCSR(n, n, is, js, vs)
}

// Forward builds the embedding computation for one heterogeneous graph.
func (m *MAGNN) Forward(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	n := g.N()
	// Type-specific projections scattered into a shared latent matrix.
	var wordIdx, sentIdx []int
	for i, node := range g.Nodes {
		if node.Space == graph.SentenceSpace {
			sentIdx = append(sentIdx, i)
		} else {
			wordIdx = append(wordIdx, i)
		}
	}
	var h *autodiff.Node
	addSpace := func(idx []int, dim int, w string) {
		if len(idx) == 0 {
			return
		}
		sub := mat.NewDense(len(idx), dim)
		for k, i := range idx {
			row := sub.Row(k)
			f := g.Nodes[i].Feature
			for j := 0; j < dim && j < len(f); j++ {
				row[j] = f[j]
			}
		}
		proj := t.MatMul(t.Constant(sub), b.Node(w))
		scattered := t.ScatterRows(proj, idx, n)
		if h == nil {
			h = scattered
		} else {
			h = t.Add(h, scattered)
		}
	}
	addSpace(wordIdx, m.WordDim, "proj.word")
	addSpace(sentIdx, m.SentDim, "proj.sent")
	if h == nil {
		h = t.Constant(mat.NewDense(n, m.HiddenDim))
	} else {
		h = t.AddRowBroadcast(h, b.Node("proj.b"))
		h = t.ReLU(h)
	}

	aDirect := kindAdjacency(g, rules.DirectMatch)
	aEnv := kindAdjacency(g, rules.EnvMatch)
	for _, n := range m.names {
		self := t.MatMul(h, b.Node(n.self))
		dir := t.MatMul(t.SpMM(aDirect, h), b.Node(n.direct))
		env := t.MatMul(t.SpMM(aEnv, h), b.Node(n.env))
		sum := t.Add(t.Add(self, dir), env)
		sum = t.AddRowBroadcast(sum, b.Node(n.b))
		h = t.ReLU(sum)
	}
	pooled := t.ConcatCols(t.MeanRows(h), t.MaxRows(h))
	return t.MatMul(pooled, b.Node("out.w"))
}
