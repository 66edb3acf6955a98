package mat

import (
	"testing"
	"testing/quick"
)

func TestCSRBasics(t *testing.T) {
	// [[0 1 0],[2 0 3]]
	s := NewCSR(2, 3, []int{0, 1, 1}, []int{1, 0, 2}, []float64{1, 2, 3})
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	d := s.ToDense()
	want := NewDenseData(2, 3, []float64{0, 1, 0, 2, 0, 3})
	if !d.Equalish(want, 0) {
		t.Fatalf("ToDense = %v", d)
	}
}

func TestCSRDuplicateSum(t *testing.T) {
	s := NewCSR(1, 2, []int{0, 0, 0}, []int{1, 1, 0}, []float64{1, 2, 5})
	d := s.ToDense()
	if d.At(0, 1) != 3 || d.At(0, 0) != 5 {
		t.Fatalf("duplicates not summed: %v", d)
	}
	if s.NNZ() != 2 {
		t.Fatalf("NNZ after merge = %d", s.NNZ())
	}
}

func TestSpMMMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		n := int(seed%5) + 2
		c := int(seed%3) + 1
		var is, js []int
		var vs []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (i*7+j*3+int(seed))%3 == 0 {
					is = append(is, i)
					js = append(js, j)
					vs = append(vs, float64((i+j+int(seed%10)))/2)
				}
			}
		}
		if len(is) == 0 {
			is, js, vs = []int{0}, []int{0}, []float64{1}
		}
		s := NewCSR(n, n, is, js, vs)
		b := NewDense(n, c)
		for i := range b.Data() {
			b.Data()[i] = float64(i%7) - 3
		}
		got := NewDense(n, c)
		SpMMTo(got, s, b)
		want := Mul(s.ToDense(), b)
		return got.Equalish(want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSpMMToAliasPanics is the aliasing regression for the sparse product:
// with dst sharing b's memory, zeroing dst wiped the input and the call
// returned zeros without a word; it must panic like the dense products.
// Remake's column check keeps the row routine inside b.
func TestSpMMToAliasPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected a panic", name)
			}
		}()
		fn()
	}
	s := NewCSR(3, 3, []int{0, 1, 2}, []int{1, 2, 0}, []float64{1, 2, 3})
	m := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	mustPanic("SpMMTo dst==b", func() { SpMMTo(m, s, m) })
	if m.Data()[0] != 1 || m.Data()[5] != 6 {
		t.Fatalf("the refused product still wrote b: %v", m.Data())
	}
	backing := make([]float64, 12)
	mustPanic("SpMMTo partial overlap", func() {
		SpMMTo(NewDenseData(3, 2, backing[:6]), s, NewDenseData(3, 2, backing[3:9]))
	})
	SpMMTo(NewDenseData(3, 2, backing[:6]), s, NewDenseData(3, 2, backing[6:])) // disjoint halves are fine

	var r CSR
	mustPanic("Remake column out of range", func() {
		r.Remake(1, 2, []int{0, 1}, []int{2}, []float64{1})
	})
	mustPanic("Remake negative column", func() {
		r.Remake(1, 2, []int{0, 1}, []int{-1}, []float64{1})
	})
}

func TestCSRTranspose(t *testing.T) {
	s := NewCSR(2, 3, []int{0, 1, 1}, []int{1, 0, 2}, []float64{1, 2, 3})
	st := s.T()
	want := transpose(s.ToDense())
	if !st.ToDense().Equalish(want, 0) {
		t.Fatalf("T = %v want %v", st.ToDense(), want)
	}
	r, c := st.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims %dx%d", r, c)
	}
}

func TestCSRRowNZ(t *testing.T) {
	s := NewCSR(2, 3, []int{1, 1}, []int{0, 2}, []float64{2, 3})
	var cols []int
	var sum float64
	s.RowNZ(1, func(j int, v float64) {
		cols = append(cols, j)
		sum += v
	})
	if len(cols) != 2 || sum != 5 {
		t.Fatalf("RowNZ cols=%v sum=%v", cols, sum)
	}
	s.RowNZ(0, func(j int, v float64) { t.Fatal("row 0 should be empty") })
}
