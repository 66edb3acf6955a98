package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield same stream")
		}
	}
}

func TestDirichletIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		g := New(seed)
		for _, alpha := range []float64{0.1, 1, 10} {
			p := g.Dirichlet(5, alpha)
			var sum float64
			for _, x := range p {
				if x < 0 || math.IsNaN(x) {
					return false
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletConcentrationEffect(t *testing.T) {
	// Small alpha → spiky distributions; large alpha → near uniform.
	g := New(7)
	var spikySpread, flatSpread float64
	n := 200
	for i := 0; i < n; i++ {
		spiky := g.Dirichlet(10, 0.1)
		flat := g.Dirichlet(10, 100)
		spikySpread += maxOf(spiky) - minOf(spiky)
		flatSpread += maxOf(flat) - minOf(flat)
	}
	if spikySpread <= flatSpread {
		t.Fatalf("alpha=0.1 spread %v should exceed alpha=100 spread %v",
			spikySpread/float64(n), flatSpread/float64(n))
	}
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

func TestGammaMean(t *testing.T) {
	// Mean of Gamma(shape,1) is shape.
	g := New(11)
	for _, shape := range []float64{0.5, 2, 8} {
		var sum float64
		n := 5000
		for i := 0; i < n; i++ {
			sum += g.Gamma(shape)
		}
		mean := sum / float64(n)
		if math.Abs(mean-shape) > 0.15*shape+0.05 {
			t.Fatalf("Gamma(%v) mean = %v", shape, mean)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	g := New(13)
	lambda := 4.0
	var sum float64
	n := 5000
	for i := 0; i < n; i++ {
		sum += float64(g.Poisson(lambda))
	}
	mean := sum / float64(n)
	if math.Abs(mean-lambda) > 0.2 {
		t.Fatalf("Poisson mean = %v want ~%v", mean, lambda)
	}
	if g.Poisson(0) != 0 {
		t.Fatal("Poisson(0) must be 0")
	}
}

func TestGlorotBounds(t *testing.T) {
	g := New(17)
	m := g.Glorot(10, 20)
	limit := math.Sqrt(6.0 / 30.0)
	for _, x := range m.Data() {
		if x < -limit || x > limit {
			t.Fatalf("Glorot out of bounds: %v limit %v", x, limit)
		}
	}
	if m.Sum() == 0 {
		t.Fatal("Glorot all zero")
	}
}

func TestPickWeighted(t *testing.T) {
	g := New(19)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[g.PickWeighted([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weighted sampling violated ordering: %v", counts)
	}
	// Degenerate weights fall back to uniform.
	idx := g.PickWeighted([]float64{0, 0})
	if idx != 0 && idx != 1 {
		t.Fatal("degenerate weights")
	}
}

func TestIntRangeAndSample(t *testing.T) {
	g := New(23)
	for i := 0; i < 100; i++ {
		v := g.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange out of range: %d", v)
		}
	}
	s := g.SampleWithoutReplacement(10, 4)
	seen := map[int]bool{}
	for _, x := range s {
		if seen[x] || x < 0 || x >= 10 {
			t.Fatalf("bad sample %v", s)
		}
		seen[x] = true
	}
	if len(s) != 4 {
		t.Fatalf("sample size %d", len(s))
	}
	if len(g.SampleWithoutReplacement(3, 10)) != 3 {
		t.Fatal("oversized k must clamp")
	}
}

func TestPickGeneric(t *testing.T) {
	g := New(29)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(g, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never chose some element: %v", seen)
	}
}
