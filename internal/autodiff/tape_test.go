package autodiff

import (
	"math"
	"testing"

	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// numericGrad computes the central finite-difference gradient of loss(w)
// with respect to every element of w.
func numericGrad(w *mat.Dense, loss func() float64) *mat.Dense {
	const h = 1e-5
	r, c := w.Dims()
	g := mat.NewDense(r, c)
	d := w.Data()
	for i := range d {
		orig := d[i]
		d[i] = orig + h
		up := loss()
		d[i] = orig - h
		down := loss()
		d[i] = orig
		g.Data()[i] = (up - down) / (2 * h)
	}
	return g
}

// checkGrad runs forward() once for the analytic gradient and compares it
// against finite differences for parameter w.
func checkGrad(t *testing.T, name string, w *mat.Dense, forward func() (*Tape, *Node, *Node)) {
	t.Helper()
	tape, wNode, loss := forward()
	tape.Backward(loss)
	analytic := wNode.Grad
	numeric := numericGrad(w, func() float64 {
		_, _, l := forward()
		return l.Value.At(0, 0)
	})
	if analytic == nil {
		t.Fatalf("%s: no gradient computed", name)
	}
	if !analytic.Equalish(numeric, 1e-4) {
		t.Fatalf("%s: analytic %v vs numeric %v", name, analytic, numeric)
	}
}

func TestMatMulGrad(t *testing.T) {
	g := rng.New(1)
	w := g.Gaussian(3, 2, 1)
	x := g.Gaussian(4, 3, 1)
	checkGrad(t, "matmul", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		xn := tape.Constant(x)
		y := tape.MatMul(xn, wn)
		sq := tape.Hadamard(y, y)
		return tape, wn, tape.SumAll(sq)
	})
}

func TestSpMMGrad(t *testing.T) {
	g := rng.New(2)
	w := g.Gaussian(3, 2, 1)
	adj := mat.NewCSR(3, 3,
		[]int{0, 0, 1, 2, 2}, []int{0, 1, 2, 0, 2},
		[]float64{0.5, 0.5, 1, 0.3, 0.7})
	checkGrad(t, "spmm", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		y := tape.SpMM(adj, wn)
		sq := tape.Hadamard(y, y)
		return tape, wn, tape.SumAll(sq)
	})
}

func TestActivationGrads(t *testing.T) {
	acts := map[string]func(*Tape, *Node) *Node{
		"relu":    func(tp *Tape, n *Node) *Node { return tp.ReLU(n) },
		"sigmoid": func(tp *Tape, n *Node) *Node { return tp.Sigmoid(n) },
		"tanh":    func(tp *Tape, n *Node) *Node { return tp.Tanh(n) },
	}
	for name, act := range acts {
		g := rng.New(3)
		w := g.Gaussian(2, 3, 1)
		// Nudge away from the ReLU kink for stable finite differences.
		w.Apply(func(x float64) float64 {
			if math.Abs(x) < 0.05 {
				return x + 0.1
			}
			return x
		})
		checkGrad(t, name, w, func() (*Tape, *Node, *Node) {
			tape := NewTape()
			wn := tape.Param(w)
			y := act(tape, wn)
			sq := tape.Hadamard(y, y)
			return tape, wn, tape.SumAll(sq)
		})
	}
}

func TestReductionGrads(t *testing.T) {
	g := rng.New(4)
	w := g.Gaussian(4, 3, 1)
	checkGrad(t, "meanrows", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		m := tape.MeanRows(wn)
		sq := tape.Hadamard(m, m)
		return tape, wn, tape.SumAll(sq)
	})
	checkGrad(t, "sumrows", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		m := tape.SumRows(wn)
		sq := tape.Hadamard(m, m)
		return tape, wn, tape.SumAll(sq)
	})
}

func TestAddRowBroadcastGrad(t *testing.T) {
	g := rng.New(5)
	bias := g.Gaussian(1, 3, 1)
	x := g.Gaussian(4, 3, 1)
	checkGrad(t, "bias", bias, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		bn := tape.Param(bias)
		xn := tape.Constant(x)
		y := tape.AddRowBroadcast(xn, bn)
		sq := tape.Hadamard(y, y)
		return tape, bn, tape.SumAll(sq)
	})
}

func TestConcatColsGrad(t *testing.T) {
	g := rng.New(6)
	w := g.Gaussian(4, 2, 1)
	other := g.Gaussian(4, 3, 1)
	checkGrad(t, "concat", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		on := tape.Constant(other)
		y := tape.ConcatCols(wn, on)
		sq := tape.Hadamard(y, y)
		return tape, wn, tape.SumAll(sq)
	})
}

func TestSoftmaxCrossEntropyGrad(t *testing.T) {
	g := rng.New(7)
	w := g.Gaussian(5, 3, 1)
	labels := []int{0, 2, 1, 1, 0}
	weights := []float64{1, 2, 0.5}
	checkGrad(t, "xent", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		return tape, wn, tape.SoftmaxCrossEntropy(wn, labels, weights)
	})
}

func TestContrastiveLossGradAndValues(t *testing.T) {
	g := rng.New(9)
	za := g.Gaussian(1, 4, 1)
	zbRaw := g.Gaussian(1, 4, 1)
	for _, diff := range []bool{false, true} {
		checkGrad(t, "contrastive", za, func() (*Tape, *Node, *Node) {
			tape := NewTape()
			an := tape.Param(za)
			bn := tape.Constant(zbRaw)
			return tape, an, tape.ContrastiveLoss(an, bn, diff, 2.0)
		})
	}
	// Same class: loss is squared distance.
	tape := NewTape()
	an := tape.Constant(za)
	bn := tape.Constant(zbRaw)
	l := tape.ContrastiveLoss(an, bn, false, 2.0)
	want := math.Pow(mat.Dist2(za.Row(0), zbRaw.Row(0)), 2)
	if math.Abs(l.Value.At(0, 0)-want) > 1e-10 {
		t.Fatalf("same-class loss %v want %v", l.Value.At(0, 0), want)
	}
	// Different class, far apart beyond margin: loss clamps to 0.
	far := za.Clone().Apply(func(x float64) float64 { return x + 100 })
	tape = NewTape()
	l = tape.ContrastiveLoss(tape.Constant(za), tape.Constant(far), true, 2.0)
	if l.Value.At(0, 0) != 0 {
		t.Fatalf("far different-class loss should clamp to 0, got %v", l.Value.At(0, 0))
	}
}

func TestParamReuseAccumulates(t *testing.T) {
	// Using the same parameter node twice must sum gradient contributions.
	w := mat.NewDenseData(1, 1, []float64{3})
	tape := NewTape()
	wn := tape.Param(w)
	y := tape.Hadamard(wn, wn) // w²
	loss := tape.SumAll(y)
	tape.Backward(loss)
	if got := wn.Grad.At(0, 0); math.Abs(got-6) > 1e-12 {
		t.Fatalf("d(w²)/dw = %v want 6", got)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	tape := NewTape()
	n := tape.Param(mat.NewDense(2, 2))
	tape.Backward(n)
}

func TestMaxRowsGradAndForward(t *testing.T) {
	g := rng.New(11)
	w := g.Gaussian(4, 3, 1)
	// Keep entries well separated so the argmax is stable under the
	// finite-difference probe.
	w.Apply(func(x float64) float64 { return x * 3 })
	checkGrad(t, "maxrows", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		m := tape.MaxRows(wn)
		sq := tape.Hadamard(m, m)
		return tape, wn, tape.SumAll(sq)
	})
	// Forward correctness.
	x := mat.NewDenseData(3, 2, []float64{1, 9, 5, 2, 3, 4})
	tape := NewTape()
	out := tape.MaxRows(tape.Constant(x))
	if out.Value.At(0, 0) != 5 || out.Value.At(0, 1) != 9 {
		t.Fatalf("MaxRows = %v", out.Value)
	}
}

// TestMaxRowsMatchesColumnScan: the row-wise pass picks the value the
// column-at-a-time scan picked, and Backward routes each column's gradient
// to the scan's arg-max row — ties to the lowest row, NaN never winning and
// never losing from row 0, ±0 and ±Inf as compared.
func TestMaxRowsMatchesColumnScan(t *testing.T) {
	special := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1, -2}
	g := rng.New(21)
	for trial := 0; trial < 400; trial++ {
		n, c := 1+g.Intn(9), 1+g.Intn(19)
		x := mat.NewDense(n, c)
		for i := range x.Data() {
			x.Data()[i] = float64(g.Intn(5)) - 2
			if g.Intn(3) == 0 {
				x.Data()[i] = special[g.Intn(len(special))]
			}
		}
		w := mat.NewDense(1, c)
		for j := range w.Data() {
			w.Data()[j] = float64(j + 1)
		}
		tape := NewTape()
		xn := tape.Param(x)
		out := tape.MaxRows(xn)
		tape.Backward(tape.SumAll(tape.Hadamard(out, tape.Constant(w))))
		for j := 0; j < c; j++ {
			best, bi := x.At(0, j), 0
			for i := 1; i < n; i++ {
				if v := x.At(i, j); v > best {
					best, bi = v, i
				}
			}
			if math.Float64bits(out.Value.At(0, j)) != math.Float64bits(best) {
				t.Fatalf("trial %d column %d of %v: max %v, column scan %v", trial, j, x, out.Value.At(0, j), best)
			}
			for i := 0; i < n; i++ {
				want := 0.0
				if i == bi {
					want = w.At(0, j)
				}
				if math.Float64bits(xn.Grad.At(i, j)) != math.Float64bits(want) {
					t.Fatalf("trial %d column %d of %v: gradient %v at row %d, want the column scan's row %d",
						trial, j, x, xn.Grad.At(i, j), i, bi)
				}
			}
		}
	}
}

func TestAddSubScaleGrads(t *testing.T) {
	g := rng.New(13)
	w := g.Gaussian(2, 2, 1)
	other := g.Gaussian(2, 2, 1)
	checkGrad(t, "add", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		on := tape.Constant(other)
		y := tape.Add(wn, on)
		return tape, wn, tape.SumAll(tape.Hadamard(y, y))
	})
	checkGrad(t, "sub", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		on := tape.Constant(other)
		y := tape.Sub(on, wn)
		return tape, wn, tape.SumAll(tape.Hadamard(y, y))
	})
	checkGrad(t, "scale", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		y := tape.Scale(wn, -2.5)
		return tape, wn, tape.SumAll(tape.Hadamard(y, y))
	})
	checkGrad(t, "addconst", w, func() (*Tape, *Node, *Node) {
		tape := NewTape()
		wn := tape.Param(w)
		y := tape.AddConst(wn, 1.7)
		return tape, wn, tape.SumAll(tape.Hadamard(y, y))
	})
}
