package autodiff

import (
	"fmt"
	"math"

	"fexiot/internal/mat"
)

// ParamSet is an ordered collection of named trainable matrices. Each
// parameter is tagged with the model layer it belongs to, which is what the
// paper's layer-wise clustered federated aggregation (Algorithm 1) operates
// on.
type ParamSet struct {
	names   []string
	vals    map[string]*mat.Dense
	layerOf map[string]int
}

// NewParamSet creates an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{vals: map[string]*mat.Dense{}, layerOf: map[string]int{}}
}

// Register adds a parameter under name, associated with layer index layer.
func (p *ParamSet) Register(name string, layer int, v *mat.Dense) *mat.Dense {
	if _, ok := p.vals[name]; ok {
		panic(fmt.Sprintf("autodiff: duplicate parameter %q", name))
	}
	p.names = append(p.names, name)
	p.vals[name] = v
	p.layerOf[name] = layer
	return v
}

// Get returns the parameter value by name.
func (p *ParamSet) Get(name string) *mat.Dense {
	v, ok := p.vals[name]
	if !ok {
		panic(fmt.Sprintf("autodiff: unknown parameter %q", name))
	}
	return v
}

// Names returns the parameter names in registration order.
func (p *ParamSet) Names() []string { return append([]string(nil), p.names...) }

// NumLayers returns 1 + the largest layer index.
func (p *ParamSet) NumLayers() int {
	max := -1
	for _, l := range p.layerOf {
		if l > max {
			max = l
		}
	}
	return max + 1
}

// LayerNames returns the names of parameters in layer l in registration
// order — the coordinate order of FlattenLayer, so a layer shipped tensor
// by tensor and a layer flattened in place are the same vector.
func (p *ParamSet) LayerNames(l int) []string {
	var out []string
	for _, n := range p.names {
		if p.layerOf[n] == l {
			out = append(out, n)
		}
	}
	return out
}

// NumElements returns the total scalar count across all parameters.
func (p *ParamSet) NumElements() int {
	total := 0
	for _, v := range p.vals {
		r, c := v.Dims()
		total += r * c
	}
	return total
}

// LayerElements returns the scalar count of parameters in layer l.
func (p *ParamSet) LayerElements(l int) int {
	total := 0
	for _, n := range p.names {
		if p.layerOf[n] == l {
			r, c := p.vals[n].Dims()
			total += r * c
		}
	}
	return total
}

// Clone returns a deep copy sharing names and layer assignment.
func (p *ParamSet) Clone() *ParamSet {
	out := NewParamSet()
	for _, n := range p.names {
		out.Register(n, p.layerOf[n], p.vals[n].Clone())
	}
	return out
}

// CopyFrom copies values from src (same structure) into p.
func (p *ParamSet) CopyFrom(src *ParamSet) {
	for _, n := range p.names {
		p.vals[n].CopyFrom(src.vals[n])
	}
}

// FlattenLayer concatenates the layer-l parameters into one vector; this is
// the representation the FL server clusters by cosine similarity.
func (p *ParamSet) FlattenLayer(l int) []float64 {
	out := make([]float64, 0, p.LayerElements(l))
	for _, n := range p.names {
		if p.layerOf[n] == l {
			out = append(out, p.vals[n].Data()...)
		}
	}
	return out
}

// Flatten concatenates all parameters into one vector.
func (p *ParamSet) Flatten() []float64 {
	out := make([]float64, 0, p.NumElements())
	for _, n := range p.names {
		out = append(out, p.vals[n].Data()...)
	}
	return out
}

// SetFlattenLayer writes a flat vector back into the layer-l parameters —
// the inverse of FlattenLayer, used by robust aggregators that operate on
// flattened coordinates.
func (p *ParamSet) SetFlattenLayer(l int, v []float64) {
	off := 0
	for _, n := range p.names {
		if p.layerOf[n] != l {
			continue
		}
		d := p.vals[n].Data()
		copy(d, v[off:off+len(d)])
		off += len(d)
	}
	if off != len(v) {
		panic(fmt.Sprintf("autodiff: SetFlattenLayer got %d values, layer %d holds %d", len(v), l, off))
	}
}

// SetFlatten writes a flat vector back into all parameters — the inverse of
// Flatten.
func (p *ParamSet) SetFlatten(v []float64) {
	off := 0
	for _, n := range p.names {
		d := p.vals[n].Data()
		copy(d, v[off:off+len(d)])
		off += len(d)
	}
	if off != len(v) {
		panic(fmt.Sprintf("autodiff: SetFlatten got %d values, set holds %d", len(v), off))
	}
}

// Sub returns the element-wise difference p − q as flat-layer vectors are
// needed; it produces a new ParamSet with the same structure.
func (p *ParamSet) Sub(q *ParamSet) *ParamSet {
	out := p.Clone()
	for _, n := range out.names {
		out.vals[n].AddScaled(q.vals[n], -1)
	}
	return out
}

// LayerDiffNorms returns, per layer, the Euclidean norm of p − q over the
// layer's coordinates in FlattenLayer order — mat.Norm2 of
// p.Sub(q).FlattenLayer(l), bit for bit (each coordinate is a + (−1·b),
// squared and summed in registration order), without materialising the
// difference or the flat vector: the result map is its only allocation.
func (p *ParamSet) LayerDiffNorms(q *ParamSet) map[int]float64 {
	layers := p.NumLayers()
	out := make(map[int]float64, layers)
	for l := 0; l < layers; l++ {
		var s float64
		for _, n := range p.names {
			if p.layerOf[n] != l {
				continue
			}
			a, b := p.vals[n].Data(), q.vals[n].Data()
			if len(a) != len(b) {
				panic(fmt.Sprintf("autodiff: LayerDiffNorms %q holds %d and %d values", n, len(a), len(b)))
			}
			for i, av := range a {
				x := av + -1*b[i]
				s += x * x
			}
		}
		out[l] = math.Sqrt(s)
	}
	return out
}

// Adam is the Adam optimiser over a ParamSet, with the paper's default
// learning rate 0.001.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
	m    map[string]*mat.Dense
	v    map[string]*mat.Dense
}

// NewAdam creates an Adam optimiser with standard hyperparameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[string]*mat.Dense{}, v: map[string]*mat.Dense{}}
}

// Step applies one Adam update using the gradients stored in grads, a map
// from parameter name to the gradient matrix accumulated by the tape.
func (a *Adam) Step(params *ParamSet, grads map[string]*mat.Dense) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, name := range params.names {
		g, ok := grads[name]
		if !ok || g == nil {
			continue
		}
		w := params.vals[name]
		mm, ok := a.m[name]
		if !ok {
			r, c := w.Dims()
			mm = mat.NewDense(r, c)
			a.m[name] = mm
			a.v[name] = mat.NewDense(r, c)
		}
		vv := a.v[name]
		wd, gd, md, vd := w.Data(), g.Data(), mm.Data(), vv.Data()
		for i := range wd {
			gi := gd[i]
			if a.WeightDecay > 0 {
				gi += a.WeightDecay * wd[i]
			}
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*gi
			vd[i] = a.Beta2*vd[i] + (1-a.Beta2)*gi*gi
			mhat := md[i] / bc1
			vhat := vd[i] / bc2
			wd[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
