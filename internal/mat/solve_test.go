package mat

import (
	"math"
	"testing"
	"testing/quick"
)

// randSPD builds a random symmetric positive-definite matrix from a seed.
func randSPD(n int, seed int64) *Dense {
	b := NewDense(n, n)
	for i := range b.Data() {
		b.Data()[i] = math.Sin(float64(i)*1.37 + float64(seed))
	}
	spd := Mul(transpose(b), b)
	for i := 0; i < n; i++ {
		spd.Add(i, i, float64(n)) // ensure strict positive definiteness
	}
	return spd
}

func TestCholeskyReconstruction(t *testing.T) {
	a := randSPD(5, 3)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := Mul(l, transpose(l))
	if !recon.Equalish(a, 1e-9) {
		t.Fatalf("LLᵀ != A:\n%v\n%v", recon, a)
	}
}

func TestCholeskySingular(t *testing.T) {
	a := NewDense(3, 3) // zero matrix is not PD
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveSPDResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%6+6) % 6
		n += 2
		a := randSPD(n, seed)
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Cos(float64(i) + float64(seed))
		}
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		// Check A·x ≈ b.
		for i := 0; i < n; i++ {
			s := Dot(a.Row(i), x)
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedLeastSquaresRecoversLine(t *testing.T) {
	// y = 3x1 - 2x2, uniform weights.
	n := 50
	x := NewDense(n, 2)
	y := make([]float64, n)
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, math.Sin(float64(i)))
		x.Set(i, 1, math.Cos(float64(i)*0.7))
		y[i] = 3*x.At(i, 0) - 2*x.At(i, 1)
		w[i] = 1
	}
	coef, err := WeightedLeastSquares(x, y, w, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-3) > 1e-5 || math.Abs(coef[1]+2) > 1e-5 {
		t.Fatalf("coef = %v want [3 -2]", coef)
	}
}

func TestWeightedLeastSquaresRespectsWeights(t *testing.T) {
	// Two inconsistent points; the heavier one should dominate.
	x := NewDenseData(2, 1, []float64{1, 1})
	y := []float64{0, 10}
	coef, err := WeightedLeastSquares(x, y, []float64{1, 999}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if coef[0] < 9.9 {
		t.Fatalf("coef = %v, heavy point should dominate", coef)
	}
}

func TestPCAAlignsWithDominantDirection(t *testing.T) {
	// Points along direction (1,1) with small orthogonal noise.
	n := 100
	x := NewDense(n, 2)
	for i := 0; i < n; i++ {
		tt := float64(i) - float64(n)/2
		noise := 0.01 * math.Sin(float64(i)*13)
		x.Set(i, 0, tt+noise)
		x.Set(i, 1, tt-noise)
	}
	p := PCA(x, 1, 50)
	// Projected variance should be close to total variance.
	var proj, total float64
	for i := 0; i < n; i++ {
		proj += p.At(i, 0) * p.At(i, 0)
		total += x.At(i, 0)*x.At(i, 0) + x.At(i, 1)*x.At(i, 1)
	}
	// Mean was removed; compare magnitudes loosely.
	if proj < 0.95*total*0.5 {
		t.Fatalf("PCA captured too little variance: %v of %v", proj, total)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if Median(v) != 3 {
		t.Fatalf("Median = %v", Median(v))
	}
	if Quantile(v, 0) != 1 || Quantile(v, 1) != 5 {
		t.Fatalf("extreme quantiles wrong")
	}
	if q := Quantile(v, 0.5); q != 3 {
		t.Fatalf("Quantile(0.5) = %v", q)
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 0}
	b := []float64{0, 1}
	if CosineSimilarity(a, b) != 0 {
		t.Fatal("orthogonal cosine")
	}
	if CosineSimilarity(a, a) != 1 {
		t.Fatal("self cosine")
	}
	if Dist2(a, b) != math.Sqrt2 {
		t.Fatalf("Dist2 = %v", Dist2(a, b))
	}
	if ArgMax([]float64{1, 5, 2}) != 1 {
		t.Fatal("argmax")
	}
	s := Softmax([]float64{1, 1, 1})
	for _, p := range s {
		if math.Abs(p-1.0/3) > 1e-12 {
			t.Fatalf("uniform softmax = %v", s)
		}
	}
	if Sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0)")
	}
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp")
	}
}

func TestSoftmaxStability(t *testing.T) {
	s := Softmax([]float64{1000, 1000, 999})
	var sum float64
	for _, p := range s {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatal("softmax overflow")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v", sum)
	}
}
