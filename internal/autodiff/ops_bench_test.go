package autodiff

import (
	"fmt"
	"math/rand"
	"testing"

	"fexiot/internal/mat"
)

// normal returns an r×c matrix of standard normal draws: half negative, in
// no order a predictor learns, as a hidden activation before its ReLU.
func normal(r, c int) *mat.Dense {
	x := mat.NewDense(r, c)
	g := rand.New(rand.NewSource(1))
	for i := range x.Data() {
		x.Data()[i] = g.NormFloat64()
	}
	return x
}

// BenchmarkReLU measures Tape.ReLU's forward on a hidden activation of the
// size a Detect sees six times at the paper's dimensions: 18 nodes × 64.
func BenchmarkReLU(b *testing.B) {
	b.Run("18x64", func(b *testing.B) {
		x := normal(18, 64)
		t := NewTape()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Reset()
			t.ReLU(t.Constant(x))
		}
	})
}

// BenchmarkReadout measures GIN's readout pair, SumRows and MaxRows of one
// node: forward alone, as every explanation score runs it, and forward plus
// Backward, as training does. 18×64 is a Detect's last layer at the paper's
// dimensions, 40×64 a large coalition.
func BenchmarkReadout(b *testing.B) {
	for _, n := range []int{18, 40} {
		x := normal(n, 64)
		t := NewTape()
		b.Run(fmt.Sprintf("%dx64/forward", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t.Reset()
				h := t.Constant(x)
				t.SumRows(h)
				t.MaxRows(h)
			}
		})
		b.Run(fmt.Sprintf("%dx64/backward", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t.Reset()
				h := t.Param(x)
				t.Backward(t.SumAll(t.ConcatCols(t.SumRows(h), t.MaxRows(h))))
			}
		})
	}
}
