package autodiff

import (
	"math"
	"testing"

	"fexiot/internal/mat"
)

func demoParams() *ParamSet {
	p := NewParamSet()
	p.Register("l0.w", 0, mat.NewDenseData(2, 2, []float64{1, 2, 3, 4}))
	p.Register("l0.b", 0, mat.NewDenseData(1, 2, []float64{5, 6}))
	p.Register("l1.w", 1, mat.NewDenseData(2, 1, []float64{7, 8}))
	return p
}

func TestParamSetStructure(t *testing.T) {
	p := demoParams()
	if p.NumLayers() != 2 {
		t.Fatalf("NumLayers = %d", p.NumLayers())
	}
	if p.NumElements() != 8 {
		t.Fatalf("NumElements = %d", p.NumElements())
	}
	if p.LayerElements(0) != 6 || p.LayerElements(1) != 2 {
		t.Fatal("LayerElements wrong")
	}
	// Registration order, matching FlattenLayer's coordinates.
	if got := p.LayerNames(0); len(got) != 2 || got[0] != "l0.w" || got[1] != "l0.b" {
		t.Fatalf("LayerNames(0) = %v", got)
	}
	flat := p.FlattenLayer(1)
	if len(flat) != 2 || flat[0] != 7 {
		t.Fatalf("FlattenLayer = %v", flat)
	}
	if len(p.Flatten()) != 8 {
		t.Fatal("Flatten length")
	}
}

func TestParamSetCloneAndCopy(t *testing.T) {
	p := demoParams()
	q := p.Clone()
	q.Get("l0.w").Set(0, 0, 99)
	if p.Get("l0.w").At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
	p.CopyFrom(q)
	if p.Get("l0.w").At(0, 0) != 99 {
		t.Fatal("CopyFrom failed")
	}
}

func TestSubAndNorm(t *testing.T) {
	p := demoParams()
	q := demoParams()
	d := p.Sub(q)
	if n := mat.Norm2(d.Flatten()); n != 0 {
		t.Fatalf("self-difference norm = %v", n)
	}
	q.Get("l0.w").Set(0, 0, 0) // was 1
	d = p.Sub(q)
	if n := mat.Norm2(d.Flatten()); math.Abs(n-1) > 1e-12 {
		t.Fatalf("norm = %v want 1", n)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise ||w - target||² with Adam; should approach target.
	target := mat.NewDenseData(2, 2, []float64{1, -2, 3, -4})
	p := NewParamSet()
	p.Register("w", 0, mat.NewDense(2, 2))
	opt := NewAdam(0.05)
	for i := 0; i < 500; i++ {
		tape := NewTape()
		b := Bind(tape, p)
		d := tape.Sub(b.Node("w"), tape.Constant(target))
		loss := tape.SumAll(tape.Hadamard(d, d))
		tape.Backward(loss)
		g := NewGrads(p)
		g.Add(b)
		opt.Step(p, g)
	}
	if !p.Get("w").Equalish(target, 1e-2) {
		t.Fatalf("Adam failed to converge: %v", p.Get("w"))
	}
}

func TestAdamSkipsMissingGrads(t *testing.T) {
	p := demoParams()
	before := p.Get("l1.w").Clone()
	opt := NewAdam(0.1)
	opt.Step(p, NewGrads(p)) // no gradients at all
	if !p.Get("l1.w").Equalish(before, 0) {
		t.Fatal("parameters changed without gradients")
	}
}

// gradsOf returns a gradient slab for p with the given parameters touched
// and holding the given values.
func gradsOf(p *ParamSet, touched map[string][]float64) *Grads {
	g := NewGrads(p)
	for name, v := range touched {
		i := p.pos(name)
		copy(g.params[i].of(g.data), v)
		g.touched[i] = true
	}
	return g
}

func TestClipGrads(t *testing.T) {
	p := NewParamSet()
	p.Register("a", 0, mat.NewDense(1, 2))
	p.Register("b", 0, mat.NewDense(1, 2))
	g := gradsOf(p, map[string][]float64{"a": {3, 0}, "b": {0, 4}})
	if norm := ClipGrads(g, 1); norm != 5 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if n := mat.Norm2(g.data); math.Abs(n-1) > 1e-9 {
		t.Fatalf("clipped norm = %v", n)
	}
	// Below threshold: untouched.
	h := gradsOf(p, map[string][]float64{"a": {0.5, 0}})
	ClipGrads(h, 1)
	if h.data[0] != 0.5 {
		t.Fatal("small grads must not change")
	}
}

// TestClipGradsSumsInSortedNameOrder pins the order of ClipGrads' squared
// sum: sorted parameter names, not registration (slab) order. Summing in
// slab order was measured to move 30 of TestSimulatorPinned's 35 case
// digests, TestFedRoundModelHashPinned and TestExplanationsPinned, because
// the clip factor feeds every trained weight.
func TestClipGradsSumsInSortedNameOrder(t *testing.T) {
	p := NewParamSet()
	p.Register("z", 0, mat.NewDense(1, 2)) // registered first, sorts last
	p.Register("a", 1, mat.NewDense(1, 1))
	g := gradsOf(p, map[string][]float64{"z": {1, 1}, "a": {1e8}})
	big, one := 1e8*1e8, 1.0                     // float64 sums, not exact constants
	sorted := math.Sqrt(((0 + big) + one) + one) // a, then z
	slab := math.Sqrt(((0 + one) + one) + big)   // z, then a
	if sorted == slab {
		t.Fatal("the test values do not tell the two orders apart")
	}
	if got := ClipGrads(g, math.Inf(1)); math.Float64bits(got) != math.Float64bits(sorted) {
		t.Fatalf("ClipGrads norm = %v, want the sorted-name sum %v (slab order gives %v)", got, sorted, slab)
	}
}

func TestBinderMemoisesNodes(t *testing.T) {
	p := demoParams()
	tape := NewTape()
	b := Bind(tape, p)
	if b.Node("l0.w") != b.Node("l0.w") {
		t.Fatal("Binder must return the same node for repeated use")
	}
}

func TestAccumulateGrads(t *testing.T) {
	p := NewParamSet()
	p.Register("w", 0, mat.NewDenseData(1, 1, []float64{2}))
	p.Register("unused", 0, mat.NewDense(1, 1))
	g := NewGrads(p)
	pass := func() {
		tape := NewTape()
		b := Bind(tape, p)
		y := b.Node("w")
		tape.Backward(tape.SumAll(tape.Hadamard(y, y)))
		g.Add(b)
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	// d(w²)/dw = 4 per pass, 3 passes.
	if got := g.data[0]; got != 12 {
		t.Fatalf("accumulated grad = %v want 12", got)
	}
	if g.touched[1] {
		t.Fatal("a parameter no pass used is marked touched")
	}
	g.Reset()
	pass()
	if got := g.data[0]; got != 4 {
		t.Fatalf("grad after Reset = %v want 4", got)
	}
}
