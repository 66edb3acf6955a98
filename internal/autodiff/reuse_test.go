package autodiff

import (
	"math"
	"testing"

	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// reuseParams builds a small two-layer parameter set.
func reuseParams(seed int64) *ParamSet {
	r := rng.New(seed)
	p := NewParamSet()
	p.Register("w1", 0, r.Glorot(6, 8))
	p.Register("b1", 0, mat.NewDense(1, 8))
	p.Register("w2", 1, r.Glorot(8, 4))
	p.Register("b2", 1, mat.NewDense(1, 4))
	return p
}

// passGrads returns the gradients of b's pass by parameter name; they die
// at the tape's next Reset.
func passGrads(b *Binder) map[string]*mat.Dense {
	out := map[string]*mat.Dense{}
	for i, n := range b.nodes {
		if n != nil && n.Grad != nil {
			out[b.params.params[i].name] = n.Grad
		}
	}
	return out
}

// reuseForward runs a small MLP-shaped pass: matmul, broadcast bias, ReLU,
// matmul, bias, softmax CE — all the hot ops of the real models.
func reuseForward(t *Tape, b *Binder, x *mat.Dense, labels []int) *Node {
	h := t.MatMul(t.Constant(x), b.Node("w1"))
	h = t.AddRowBroadcast(h, b.Node("b1"))
	h = t.ReLU(h)
	h = t.MatMul(h, b.Node("w2"))
	h = t.AddRowBroadcast(h, b.Node("b2"))
	return t.SoftmaxCrossEntropy(h, labels, nil)
}

// TestTapeReuseMatchesFreshTape pins the arena's bit-identity contract: a
// pass on a many-times-recycled tape must produce exactly the same loss and
// gradients as the same pass on a brand-new tape.
func TestTapeReuseMatchesFreshTape(t *testing.T) {
	params := reuseParams(3)
	r := rng.New(17)
	x := r.Gaussian(5, 6, 1)
	labels := []int{0, 1, 2, 3, 0}

	// Reference: fresh tape per pass.
	freshLoss := func() (float64, map[string]*mat.Dense) {
		tape := NewTape()
		b := Bind(tape, params)
		loss := reuseForward(tape, b, x, labels)
		tape.Backward(loss)
		return loss.Value.At(0, 0), passGrads(b)
	}
	wantLoss, wantGrads := freshLoss()

	// Candidate: one tape recycled through many passes (with varying-shape
	// interleaved passes to churn the arena's size classes).
	tape := NewTape()
	b := Bind(tape, params)
	other := r.Gaussian(9, 6, 1)
	otherLabels := []int{1, 0, 3, 2, 1, 0, 0, 2, 3}
	for i := 0; i < 50; i++ {
		tape.Reset()
		b.Rebind(tape, params)
		if i%3 == 2 {
			loss := reuseForward(tape, b, other, otherLabels)
			tape.Backward(loss)
			continue
		}
		loss := reuseForward(tape, b, x, labels)
		tape.Backward(loss)
		if got := loss.Value.At(0, 0); math.Float64bits(got) != math.Float64bits(wantLoss) {
			t.Fatalf("pass %d: recycled-tape loss %v != fresh-tape loss %v", i, got, wantLoss)
		}
		for name, want := range wantGrads {
			got := passGrads(b)[name]
			for j, wv := range want.Data() {
				if math.Float64bits(got.Data()[j]) != math.Float64bits(wv) {
					t.Fatalf("pass %d: grad %q[%d] = %v != %v", i, name, j, got.Data()[j], wv)
				}
			}
		}
	}
}

// TestGradBufferReuseAcrossPasses verifies ensureGrad actually recycles: on
// a warmed tape, a parameter's gradient matrix must reuse arena backing
// rather than allocate, which shows up as a stable steady-state arena miss
// count.
func TestGradBufferReuseAcrossPasses(t *testing.T) {
	params := reuseParams(5)
	x := rng.New(7).Gaussian(5, 6, 1)
	labels := []int{0, 1, 2, 3, 0}
	tape := NewTape()
	b := Bind(tape, params)
	for i := 0; i < 5; i++ { // warm every size class
		tape.Reset()
		b.Rebind(tape, params)
		tape.Backward(reuseForward(tape, b, x, labels))
	}
	before := tape.ArenaStats()
	for i := 0; i < 20; i++ {
		tape.Reset()
		b.Rebind(tape, params)
		tape.Backward(reuseForward(tape, b, x, labels))
	}
	after := tape.ArenaStats()
	if after.Misses != before.Misses {
		t.Fatalf("steady-state passes still miss the arena: %d -> %d misses",
			before.Misses, after.Misses)
	}
	if after.Hits == before.Hits {
		t.Fatalf("steady-state passes never hit the arena (hits stuck at %d)", after.Hits)
	}
}

// TestTapeSteadyStateZeroAlloc pins the tentpole number at the tape layer:
// once warm, forward+backward+Reset runs without heap allocation.
func TestTapeSteadyStateZeroAlloc(t *testing.T) {
	params := reuseParams(9)
	x := rng.New(11).Gaussian(5, 6, 1)
	labels := []int{0, 1, 2, 3, 0}
	tape := NewTape()
	b := Bind(tape, params)
	step := func() {
		tape.Reset()
		b.Rebind(tape, params)
		tape.Backward(reuseForward(tape, b, x, labels))
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(50, step); avg > 0 {
		t.Fatalf("steady-state forward+backward+Reset allocates %.1f/op, want 0", avg)
	}
}

// TestRecycleForgetsTransposes pins the difference between the two resets:
// Reset keeps the sparse-transpose cache (the same adjacencies come back
// every pair of a round), Recycle — what a tape gets before it is parked
// for an unrelated caller — empties it, so a parked tape pins no operator,
// and so no graph, of its last borrower. The next pass rebuilds what it
// needs and produces the same gradient bits.
func TestRecycleForgetsTransposes(t *testing.T) {
	r := rng.New(29)
	w := r.Glorot(4, 3)
	ops := make([]*mat.CSR, 5)
	xs := make([]*mat.Dense, len(ops))
	for i := range ops {
		n := 3 + i
		var is, js []int
		var vs []float64
		for k := 0; k < n; k++ {
			is, js, vs = append(is, k, k), append(js, k, (k+1)%n), append(vs, 1, 0.5)
		}
		ops[i] = mat.NewCSR(n, n, is, js, vs)
		xs[i] = r.Gaussian(n, 4, 1)
	}
	tape := NewTape()
	pass := func(i int) []float64 {
		tape.Reset()
		wn := tape.Param(w)
		h := tape.SpMM(ops[i], tape.MatMul(tape.Constant(xs[i]), wn))
		tape.Backward(tape.SumAll(tape.Hadamard(h, h)))
		return append([]float64(nil), wn.Grad.Data()...)
	}
	var want [][]float64
	for i := range ops {
		want = append(want, pass(i))
	}
	if len(tape.csrT) != len(ops) {
		t.Fatalf("after %d operators the cache holds %d transposes", len(ops), len(tape.csrT))
	}
	tape.Reset()
	if len(tape.csrT) != len(ops) {
		t.Fatalf("Reset dropped the transpose cache (%d left)", len(tape.csrT))
	}
	tape.Recycle()
	if len(tape.csrT) != 0 || len(tape.nodes) != 0 {
		t.Fatalf("a recycled tape still holds %d transposes and %d nodes", len(tape.csrT), len(tape.nodes))
	}
	for i := range ops {
		for j, g := range pass(i) {
			if math.Float64bits(g) != math.Float64bits(want[i][j]) {
				t.Fatalf("operator %d after Recycle: grad[%d] = %v, want %v", i, j, g, want[i][j])
			}
		}
	}
}
