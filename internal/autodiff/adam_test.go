package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fexiot/internal/mat"
)

// adamReference is Adam.Step's element loop as first written, the fields
// read in place: what adamStep must reproduce bit for bit.
func adamReference(a *Adam, step int, wd, gd, md, vd []float64) {
	bc1 := 1 - math.Pow(a.Beta1, float64(step))
	bc2 := 1 - math.Pow(a.Beta2, float64(step))
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

// TestAdamStepMatchesReference: three Adam steps over sets of every length
// from 1 to 19 in one to three parameters, some untouched, leave the
// weights and both moments bit-identical to the scalar loop's — with
// gradients that hold NaN, ±Inf, denormals and ±0, weights that hold them
// too, and weight decay off, on, negative and NaN. The NaN is the one the
// hardware makes of ∞−∞: Go leaves which of two NaN operands an operation
// returns to the compiler, which picks differently under -race, so two
// payloads meeting would test the build, not the routine.
func TestAdamStepMatchesReference(t *testing.T) {
	nan := math.Float64frombits(0xfff8000000000000) // x86's ∞−∞
	specials := []float64{
		nan, math.Inf(1), math.Inf(-1),
		5e-324, -2.2250738585072e-308, 0, math.Copysign(0, -1), 1e300, -1e-300,
	}
	rng := rand.New(rand.NewSource(5))
	draw := func(n int, special float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
			if rng.Float64() < special {
				out[i] = specials[rng.Intn(len(specials))]
			}
		}
		return out
	}
	for _, decay := range []float64{0, 0.01, -0.01, nan} {
		for n := 1; n < 20; n++ {
			t.Run(fmt.Sprintf("decay=%v/n=%d", decay, n), func(t *testing.T) {
				// Up to three parameters of n values; the middle one of three
				// is never touched, so Step splits the slab into two ranges.
				params := NewParamSet()
				parts := 1 + n%3
				for k := 0; k < parts; k++ {
					params.Register(fmt.Sprint("p", k), k, mat.NewDenseData(1, n, draw(n, 0.2)))
				}
				opt := &Adam{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: decay}
				ref := params.Flatten()
				refM, refV := make([]float64, len(ref)), make([]float64, len(ref))
				grads := NewGrads(params)
				for step := 1; step <= 3; step++ {
					grads.Reset()
					g := draw(len(ref), 0.3)
					copy(grads.data, g)
					for k := range grads.touched {
						grads.touched[k] = parts != 3 || k != 1
						if !grads.touched[k] {
							clear(params.params[k].of(grads.data))
						}
					}
					opt.Step(params, grads)
					for k, p := range params.params {
						if grads.touched[k] {
							s := p.span
							adamReference(opt, step, s.of(ref), s.of(grads.data), s.of(refM), s.of(refV))
						}
					}
					for name, pair := range map[string][2][]float64{
						"weights": {params.data, ref}, "m": {opt.m, refM}, "v": {opt.v, refV},
					} {
						for i := range pair[1] {
							if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
								t.Fatalf("step %d: %s[%d] = %v (%#x), the loop gives %v (%#x)", step, name, i,
									pair[0][i], math.Float64bits(pair[0][i]), pair[1][i], math.Float64bits(pair[1][i]))
							}
						}
					}
				}
			})
		}
	}
}

// BenchmarkAdamStep times one optimiser step over a paper-dims GIN's 54,400
// parameters, every one touched — fed_round's client steps.
func BenchmarkAdamStep(b *testing.B) {
	b.Run("dims=paper", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		w := make([]float64, 54400)
		for i := range w {
			w[i] = rng.NormFloat64() * 0.1
		}
		params := NewParamSet()
		params.Register("w", 0, mat.NewDenseData(850, 64, w))
		grads := NewGrads(params)
		for i := range grads.data {
			grads.data[i] = rng.NormFloat64() * 0.01
		}
		grads.touched[0] = true
		opt := NewAdam(0.005)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opt.Step(params, grads)
		}
	})
}
