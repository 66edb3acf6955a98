package autodiff

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"fexiot/internal/mat"
)

// ParamSet is an ordered collection of named trainable matrices stored in
// one slab: the parameters' values lie end to end in registration order,
// and each parameter's *mat.Dense is a view of its range. Each parameter is
// tagged with the model layer it belongs to, which is what the paper's
// layer-wise clustered federated aggregation (Algorithm 1) operates on; a
// layer is the list of its parameters' ranges.
type ParamSet struct {
	*layout
	data []float64    // the slab
	vals []*mat.Dense // per parameter, a capacity-capped view of data
}

// layout is the structure a ParamSet's clones share. Register replaces it
// instead of extending it, so a clone never sees a later registration.
type layout struct {
	params []param
	index  map[string]int // name → position in params
	layers [][]span       // per layer, its parameters' ranges, adjacent ones merged
	sorted []int          // positions in params by sorted name (ClipGrads)
}

// param is one parameter's place in the slab.
type param struct {
	name  string
	layer int
	span
}

// span is the range [lo, hi) of a slab.
type span struct{ lo, hi int }

func (s span) of(slab []float64) []float64 { return slab[s.lo:s.hi:s.hi] }

// NewParamSet creates an empty parameter set.
func NewParamSet() *ParamSet { return &ParamSet{layout: &layout{index: map[string]int{}}} }

// Register appends a copy of v to the slab under name, associated with
// layer index layer, and returns the parameter's view.
func (p *ParamSet) Register(name string, layer int, v *mat.Dense) *mat.Dense {
	if _, ok := p.index[name]; ok {
		panic(fmt.Sprintf("autodiff: duplicate parameter %q", name))
	}
	r, c := v.Dims()
	k, s := len(p.params), span{len(p.data), len(p.data) + r*c}
	l := &layout{
		params: append(slices.Clip(p.params), param{name, layer, s}),
		index:  maps.Clone(p.index),
		layers: slices.Clone(p.layers),
	}
	l.index[name] = k
	for len(l.layers) <= layer {
		l.layers = append(l.layers, nil)
	}
	ranges := slices.Clone(l.layers[layer])
	if n := len(ranges); n > 0 && ranges[n-1].hi == s.lo {
		ranges[n-1].hi = s.hi
	} else {
		ranges = append(ranges, s)
	}
	l.layers[layer] = ranges
	at := sort.Search(k, func(i int) bool { return p.params[p.sorted[i]].name > name })
	l.sorted = slices.Insert(slices.Clone(p.sorted), at, k)
	p.layout = l

	data := append(p.data, v.Data()...)
	if cap(data) != cap(p.data) { // moved: point the earlier views at the new slab
		for i, m := range p.vals {
			m.Remake(m.Rows(), m.Cols(), p.params[i].of(data))
		}
	}
	p.data = data
	p.vals = append(p.vals, mat.NewDenseData(r, c, s.of(data)))
	return p.vals[k]
}

// Get returns the parameter value by name.
func (p *ParamSet) Get(name string) *mat.Dense { return p.vals[p.pos(name)] }

// pos returns the position of the named parameter in registration order.
func (p *ParamSet) pos(name string) int {
	i, ok := p.index[name]
	if !ok {
		panic(fmt.Sprintf("autodiff: unknown parameter %q", name))
	}
	return i
}

// Names returns the parameter names in registration order.
func (p *ParamSet) Names() []string {
	out := make([]string, len(p.params))
	for i, pr := range p.params {
		out[i] = pr.name
	}
	return out
}

// NumLayers returns 1 + the largest layer index.
func (p *ParamSet) NumLayers() int { return len(p.layers) }

// LayerNames returns the names of parameters in layer l in registration
// order, the coordinate order of FlattenLayer: a layer shipped tensor by
// tensor and a layer gathered from the slab are the same vector.
func (p *ParamSet) LayerNames(l int) []string {
	var out []string
	for _, pr := range p.params {
		if pr.layer == l {
			out = append(out, pr.name)
		}
	}
	return out
}

// NumElements returns the total scalar count across all parameters.
func (p *ParamSet) NumElements() int { return len(p.data) }

// LayerElements returns the scalar count of parameters in layer l.
func (p *ParamSet) LayerElements(l int) int {
	n := 0
	for _, s := range p.layers[l] {
		n += s.hi - s.lo
	}
	return n
}

// Data returns the slab itself: every parameter's values in registration
// order. Writes through it are writes to the parameters.
func (p *ParamSet) Data() []float64 { return p.data }

// Flatten returns a caller-owned copy of the slab.
func (p *ParamSet) Flatten() []float64 { return slices.Clone(p.data) }

// SetFlatten writes a flat vector into the slab — the inverse of Flatten.
func (p *ParamSet) SetFlatten(v []float64) {
	if len(v) != len(p.data) {
		panic(fmt.Sprintf("autodiff: SetFlatten got %d values, set holds %d", len(v), len(p.data)))
	}
	copy(p.data, v)
}

// FlattenLayer gathers layer l's ranges into one vector; this is the
// representation the FL server clusters by cosine similarity.
func (p *ParamSet) FlattenLayer(l int) []float64 {
	out := make([]float64, 0, p.LayerElements(l))
	for _, s := range p.layers[l] {
		out = append(out, s.of(p.data)...)
	}
	return out
}

// SetFlattenLayer scatters a flat vector into layer l's ranges — the
// inverse of FlattenLayer.
func (p *ParamSet) SetFlattenLayer(l int, v []float64) {
	if n := p.LayerElements(l); len(v) != n {
		panic(fmt.Sprintf("autodiff: SetFlattenLayer got %d values, layer %d holds %d", len(v), l, n))
	}
	for _, s := range p.layers[l] {
		v = v[copy(s.of(p.data), v):]
	}
}

// Clone returns a deep copy sharing the layout.
func (p *ParamSet) Clone() *ParamSet {
	out := &ParamSet{layout: p.layout, data: p.Flatten(), vals: make([]*mat.Dense, len(p.vals))}
	for i, m := range p.vals {
		out.vals[i] = mat.NewDenseData(m.Rows(), m.Cols(), p.params[i].of(out.data))
	}
	return out
}

// CopyFrom copies values from src (same structure) into p.
func (p *ParamSet) CopyFrom(src *ParamSet) { p.SetFlatten(src.data) }

// Sub returns the element-wise difference p − q as a new ParamSet with the
// same structure.
func (p *ParamSet) Sub(q *ParamSet) *ParamSet {
	out := p.Clone()
	mat.Axpy(out.data, q.data, -1)
	return out
}

// LayerDiffNorms returns, per layer, the Euclidean norm of p − q over the
// layer's ranges — mat.Norm2 of p.Sub(q).FlattenLayer(l), bit for bit (each
// coordinate is a + (−1·b), squared and summed in slab order), without
// materialising the difference: the result map is its only allocation.
func (p *ParamSet) LayerDiffNorms(q *ParamSet) map[int]float64 {
	if len(p.data) != len(q.data) {
		panic(fmt.Sprintf("autodiff: LayerDiffNorms of sets holding %d and %d values", len(p.data), len(q.data)))
	}
	out := make(map[int]float64, len(p.layers))
	for l, ranges := range p.layers {
		var sum float64
		for _, s := range ranges {
			b := s.of(q.data)
			for i, a := range s.of(p.data) {
				x := a + -1*b[i]
				sum += x * x
			}
		}
		out[l] = math.Sqrt(sum)
	}
	return out
}

// Grads is the gradient slab of a ParamSet — the same layout, so a
// parameter's gradient lies in the range its value does — with a mask of
// the parameters some pass has touched since Reset. Untouched ranges hold
// zeros.
type Grads struct {
	*layout
	data    []float64
	touched []bool
}

// NewGrads creates an empty gradient slab for p.
func NewGrads(p *ParamSet) *Grads {
	return &Grads{layout: p.layout, data: make([]float64, len(p.data)), touched: make([]bool, len(p.params))}
}

// Rebind makes g the zeroed gradient slab of p, as NewGrads(p) would,
// reusing g's storage when it is large enough: a caller that trains one
// model after another of the same size allocates once.
func (g *Grads) Rebind(p *ParamSet) {
	g.layout = p.layout
	g.data = slices.Grow(g.data[:0], len(p.data))[:len(p.data)]
	g.touched = slices.Grow(g.touched[:0], len(p.params))[:len(p.params)]
	g.Reset()
}

// Reset zeroes every gradient: the next Add starts a new batch.
func (g *Grads) Reset() {
	clear(g.data)
	clear(g.touched)
}

// Add adds the gradients of the pass b recorded into the slab, so a
// parameter's first touch since Reset stores 0 + ∂. The tape's gradients
// are consumed: the tape may be Reset afterwards.
func (g *Grads) Add(b *Binder) {
	if b.params.layout != g.layout {
		panic("autodiff: Grads.Add from a binder over another parameter set")
	}
	for i, n := range b.nodes {
		if n != nil && n.Grad != nil {
			mat.Axpy(g.params[i].of(g.data), n.Grad.Data(), 1)
			g.touched[i] = true
		}
	}
}

// Finite reports whether every gradient is finite.
func (g *Grads) Finite() bool { return mat.AllFinite(g.data) }

// ClipGrads rescales the gradients so their global norm does not exceed
// maxNorm. It returns the pre-clip global norm, which callers feed into
// training telemetry (a clipped step is one where the return value exceeds
// maxNorm).
//
// The squared-norm sum runs over the parameters in sorted-name order, the
// order the trained weights of every pinned federation and explanation were
// recorded in: summing in slab order instead moves the last bits of the
// clip factor, and with it every trained weight.
func ClipGrads(g *Grads, maxNorm float64) float64 {
	var total float64
	for _, i := range g.sorted {
		for _, x := range g.params[i].of(g.data) {
			total += x * x
		}
	}
	if total <= 0 {
		return 0
	}
	norm := math.Sqrt(total)
	if norm > maxNorm {
		s := maxNorm / norm
		for i := range g.data {
			g.data[i] *= s
		}
	}
	return norm
}
