package autodiff

import (
	"math/rand"
	"testing"

	"fexiot/internal/mat"
)

// BenchmarkReLU measures Tape.ReLU's forward on a hidden activation of the
// size a Detect sees six times at the paper's dimensions: 18 nodes × 64.
func BenchmarkReLU(b *testing.B) {
	b.Run("18x64", func(b *testing.B) {
		x := mat.NewDense(18, 64)
		r := rand.New(rand.NewSource(1))
		for i := range x.Data() {
			x.Data()[i] = r.NormFloat64() // half negative, in no order a predictor learns
		}
		t := NewTape()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Reset()
			t.ReLU(t.Constant(x))
		}
	})
}
