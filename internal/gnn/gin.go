package gnn

import (
	"fmt"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// GIN is the graph isomorphism network (Xu et al. 2019, "the original model
// architecture"): each layer applies a two-layer MLP to the ε-weighted
// neighbourhood sum, and the readout is the sum of per-layer sum-pooled
// representations projected to the output width — the injective aggregation
// that gives GIN its discriminative power over GCN.
type GIN struct {
	InputDim  int
	HiddenDim int
	OutDim    int
	NumLayers int
	Eps       float64

	params *autodiff.ParamSet
	names  []ginNames // per layer, formatted once: Forward runs per graph
}

// ginNames are one layer's parameter names.
type ginNames struct{ w1, b1, w2, b2, out string }

// NewGIN builds a GIN with Glorot-initialised weights.
func NewGIN(inputDim, hiddenDim, outDim int, seed int64) *GIN {
	m := &GIN{InputDim: inputDim, HiddenDim: hiddenDim, OutDim: outDim,
		NumLayers: 3, Eps: 0.1}
	r := rng.New(seed)
	p := autodiff.NewParamSet()
	in := inputDim
	for l := 0; l < m.NumLayers; l++ {
		n := ginNames{
			w1: fmt.Sprintf("gin%d.w1", l), b1: fmt.Sprintf("gin%d.b1", l),
			w2: fmt.Sprintf("gin%d.w2", l), b2: fmt.Sprintf("gin%d.b2", l),
			out: fmt.Sprintf("gin%d.out", l),
		}
		m.names = append(m.names, n)
		p.Register(n.w1, l, r.Glorot(in, hiddenDim))
		p.Register(n.b1, l, mat.NewDense(1, hiddenDim))
		p.Register(n.w2, l, r.Glorot(hiddenDim, hiddenDim))
		p.Register(n.b2, l, mat.NewDense(1, hiddenDim))
		// Per-layer readout projection (jumping knowledge style).
		p.Register(n.out, m.NumLayers, r.Glorot(2*hiddenDim, outDim))
		in = hiddenDim
	}
	m.params = p
	return m
}

// Params returns the weight set.
func (m *GIN) Params() *autodiff.ParamSet { return m.params }

// EmbedDim returns the embedding width.
func (m *GIN) EmbedDim() int { return m.OutDim }

// Fresh returns a new GIN with the same shape.
func (m *GIN) Fresh(seed int64) Model {
	return NewGIN(m.InputDim, m.HiddenDim, m.OutDim, seed)
}

// Forward builds the embedding computation for one graph.
func (m *GIN) Forward(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	return forward(m, t, b, g)
}

// layer is layer l's two-layer perceptron over aggregated rows. Every op in
// it computes an output row from its own input row only, which is what lets
// an explanation's scorer run it on just the rows it has not seen. Layer
// 0's first product is the input map's: its rows arrive projected.
func (m *GIN) layer(l int, t *autodiff.Tape, b *autodiff.Binder, agg aggs) *autodiff.Node {
	n := m.names[l]
	h := agg[0]
	if l > 0 {
		h = t.MatMul(h, b.Node(n.w1))
	}
	h = t.AddRowBroadcast(h, b.Node(n.b1))
	h = t.ReLU(h)
	h = t.MatMul(h, b.Node(n.w2))
	h = t.AddRowBroadcast(h, b.Node(n.b2))
	return t.ReLU(h)
}

// readout adds layer l's pooled output to acc, the layers' below it:
// size-normalised sum (so graph size does not dominate contrastive
// distances) concatenated with a max pool that preserves existence of
// localised vulnerability patterns, projected to the output width.
func (m *GIN) readout(l int, t *autodiff.Tape, b *autodiff.Binder, h, acc *autodiff.Node) *autodiff.Node {
	mean := t.Scale(t.SumRows(h), 1/float64(max(h.Value.Rows(), 1)))
	pooled := t.ConcatCols(mean, t.MaxRows(h))
	out := t.MatMul(pooled, b.Node(m.names[l].out))
	if acc == nil {
		return out
	}
	return t.Add(acc, out)
}
