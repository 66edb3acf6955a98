package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewDenseDims(t *testing.T) {
	m := NewDense(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	if len(m.Data()) != 12 {
		t.Fatalf("backing length %d want 12", len(m.Data()))
	}
}

func TestAtSetAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v want 5", m.At(1, 2))
	}
	m.Add(1, 2, 2.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("Add failed: %v", m.At(1, 2))
	}
}

func TestRowSetRow(t *testing.T) {
	m := NewDense(2, 3)
	m.SetRow(1, []float64{1, 2, 3})
	if got := m.Row(1); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Row(1) = %v", got)
	}
	// Row is a view.
	m.Row(1)[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias backing store")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := NewDenseData(2, 2, []float64{58, 64, 139, 154})
	if !c.Equalish(want, 1e-12) {
		t.Fatalf("Mul = %v want %v", c, want)
	}
}

func TestMulTTo(t *testing.T) {
	a := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{1, 0, 0, 1, 1, 1})
	got := NewDense(2, 2)
	MulTTo(got, a, b)
	want := Mul(transpose(a), b)
	if !got.Equalish(want, 1e-12) {
		t.Fatalf("MulTTo = %v want %v", got, want)
	}
}

func TestMulBTTo(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(4, 3, []float64{1, 0, 1, 0, 1, 0, 2, 2, 2, 1, 1, 1})
	got := NewDense(2, 4)
	MulBTTo(got, a, b)
	want := Mul(a, transpose(b))
	if !got.Equalish(want, 1e-12) {
		t.Fatalf("MulBTTo = %v want %v", got, want)
	}
}

// transpose returns mᵀ as a new matrix: the oracle the product and
// factorisation tests compare against.
func transpose(m *Dense) *Dense {
	r, c := m.Dims()
	out := NewDense(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		n := int(seed%4) + 2
		mk := func(off int) *Dense {
			m := NewDense(n, n)
			for i := range m.Data() {
				m.Data()[i] = math.Sin(float64(i*3+off) + float64(seed%100))
			}
			return m
		}
		a, b, c := mk(1), mk(2), mk(3)
		left := Mul(Mul(a, b), c)
		right := Mul(a, Mul(b, c))
		return left.Equalish(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAddScaledApply(t *testing.T) {
	m := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	m.Scale(2)
	if m.At(1, 1) != 8 {
		t.Fatalf("Scale: %v", m)
	}
	b := NewDenseData(2, 2, []float64{1, 1, 1, 1})
	m.AddScaled(b, -2)
	if m.At(0, 0) != 0 || m.At(1, 1) != 6 {
		t.Fatalf("AddScaled: %v", m)
	}
	m.Apply(func(x float64) float64 { return x * x })
	if m.At(1, 1) != 36 {
		t.Fatalf("Apply: %v", m)
	}
}

func TestNormSumMaxAbs(t *testing.T) {
	m := NewDenseData(1, 3, []float64{3, -4, 0})
	if n := Norm2(m.Data()); !almost(n, 5, 1e-12) {
		t.Fatalf("Norm2 = %v", n)
	}
	if m.Sum() != -1 {
		t.Fatalf("Sum = %v", m.Sum())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

// TestReLUToMatchesApply: the one-pass ReLU equals Apply with the comparison
// as a function — NaN, −0, ±Inf and denormals included — bit for bit, in
// place and into another matrix.
func TestReLUToMatchesApply(t *testing.T) {
	relu := func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 1, -1, math.MaxFloat64, -math.MaxFloat64}
	for _, n := range []int{0, 1, 7, 18 * 64, 401 * 331} {
		src := NewDense(1, n)
		for i := range src.data {
			src.data[i] = math.Sin(float64(i)*0.7) * 3
			if i%5 == 0 {
				src.data[i] = special[(i/5)%len(special)]
			}
		}
		want := src.Clone().Apply(relu)
		dst := NewDense(1, n)
		dst.Fill(7)
		ReLUTo(dst, src)
		inPlace := src.Clone()
		ReLUTo(inPlace, inPlace)
		for i := range want.data {
			w := math.Float64bits(want.data[i])
			if math.Float64bits(dst.data[i]) != w || math.Float64bits(inPlace.data[i]) != w {
				t.Fatalf("n %d element %d (%v): ReLUTo %v, in place %v, Apply %v",
					n, i, src.data[i], dst.data[i], inPlace.data[i], want.data[i])
			}
		}
	}
}
