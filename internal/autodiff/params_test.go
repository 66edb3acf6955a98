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
		opt.Step(p, b.Grads())
	}
	if !p.Get("w").Equalish(target, 1e-2) {
		t.Fatalf("Adam failed to converge: %v", p.Get("w"))
	}
}

func TestAdamSkipsMissingGrads(t *testing.T) {
	p := demoParams()
	before := p.Get("l1.w").Clone()
	opt := NewAdam(0.1)
	opt.Step(p, map[string]*mat.Dense{}) // no gradients at all
	if !p.Get("l1.w").Equalish(before, 0) {
		t.Fatal("parameters changed without gradients")
	}
}

func TestClipGrads(t *testing.T) {
	g := map[string]*mat.Dense{
		"a": mat.NewDenseData(1, 2, []float64{3, 0}),
		"b": mat.NewDenseData(1, 2, []float64{0, 4}),
	}
	ClipGrads(g, 1) // global norm is 5
	var total float64
	for _, m := range g {
		for _, x := range m.Data() {
			total += x * x
		}
	}
	if math.Abs(math.Sqrt(total)-1) > 1e-9 {
		t.Fatalf("clipped norm = %v", math.Sqrt(total))
	}
	// Below threshold: untouched.
	h := map[string]*mat.Dense{"a": mat.NewDenseData(1, 1, []float64{0.5})}
	ClipGrads(h, 1)
	if h["a"].At(0, 0) != 0.5 {
		t.Fatal("small grads must not change")
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
	acc := map[string]*mat.Dense{}
	for i := 0; i < 3; i++ {
		tape := NewTape()
		b := Bind(tape, p)
		y := b.Node("w")
		sq := tape.Hadamard(y, y)
		tape.Backward(tape.SumAll(sq))
		b.AccumulateGrads(acc)
	}
	// d(w²)/dw = 4 per pass, 3 passes.
	if got := acc["w"].At(0, 0); math.Abs(got-12) > 1e-12 {
		t.Fatalf("accumulated grad = %v want 12", got)
	}
}
