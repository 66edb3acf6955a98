package nn

import (
	"math"
	"testing"

	"fexiot/internal/ml"
	"fexiot/internal/rng"
)

func TestMLPSolvesXOR(t *testing.T) {
	r := rng.New(5)
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		a := r.Float64()*2 - 1
		b := r.Float64()*2 - 1
		label := 0
		if (a > 0) != (b > 0) {
			label = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	m := NewMLP([]int{2, 16, 8, 2}, 60, 0.01, 1)
	m.Fit(x[:300], y[:300])
	metrics := ml.Evaluate(ml.PredictAll(m, x[300:]), y[300:])
	if metrics.Accuracy < 0.9 {
		t.Fatalf("MLP XOR accuracy %v", metrics.Accuracy)
	}
}

func TestMLPScoreIsProbability(t *testing.T) {
	m := NewMLP([]int{2, 8, 2}, 5, 0.01, 2)
	m.Fit([][]float64{{0, 0}, {1, 1}}, []int{0, 1})
	s := m.Score([]float64{0.5, 0.5})
	if s < 0 || s > 1 || math.IsNaN(s) {
		t.Fatalf("score %v", s)
	}
	// Untrained model defaults to 0.5.
	fresh := NewMLP([]int{2, 2}, 1, 0.01, 3)
	if fresh.Score([]float64{1, 2}) != 0.5 {
		t.Fatal("untrained MLP should score 0.5")
	}
}

func TestMLPClassWeightsShiftDecisions(t *testing.T) {
	// Imbalanced 1-D data; upweighting the minority class should increase
	// predicted positives.
	r := rng.New(9)
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		if i%15 == 0 {
			x = append(x, []float64{0.5 + r.NormFloat64()})
			y = append(y, 1)
		} else {
			x = append(x, []float64{-0.5 + r.NormFloat64()})
			y = append(y, 0)
		}
	}
	count := func(weights []float64) int {
		m := NewMLP([]int{1, 8, 2}, 30, 0.01, 4)
		m.ClassWeights = weights
		m.Fit(x, y)
		pos := 0
		for _, q := range x {
			pos += m.Predict(q)
		}
		return pos
	}
	plain := count(nil)
	weighted := count([]float64{1, 15})
	if weighted <= plain {
		t.Fatalf("class weights should increase positive predictions: %d vs %d",
			plain, weighted)
	}
}

func TestMLPInputDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewMLP([]int{3, 2}, 1, 0.01, 1)
	m.Fit([][]float64{{1, 2}}, []int{0})
}

func TestLSTMLearnsCyclicSequence(t *testing.T) {
	// Deterministic cycle 0→1→2→3→0…: the model must learn the transition
	// table and flag violations.
	var seq []int
	for i := 0; i < 120; i++ {
		seq = append(seq, i%4)
	}
	l := NewLSTM(4, 12, 3, 8, 0.02, 1)
	l.TopK = 1
	l.Fit([][]int{seq})
	// Normal continuation is predicted.
	if !l.InTopK([]int{1, 2, 3}, 0) {
		t.Fatal("expected 0 after 1,2,3")
	}
	// A violation is flagged.
	if l.InTopK([]int{1, 2, 3}, 2) {
		t.Fatal("2 after 1,2,3 should be anomalous")
	}
	// Anomaly rates: clean sequence low, corrupted sequence higher.
	clean := l.AnomalyRate(seq[:40])
	corrupt := append([]int(nil), seq[:40]...)
	for i := 5; i < len(corrupt); i += 7 {
		corrupt[i] = (corrupt[i] + 2) % 4
	}
	if cr := l.AnomalyRate(corrupt); cr <= clean {
		t.Fatalf("corrupted rate %v should exceed clean rate %v", cr, clean)
	}
}

func TestLSTMEmptyFit(t *testing.T) {
	l := NewLSTM(4, 8, 3, 2, 0.01, 1)
	l.Fit(nil) // no sequences: must not panic
	if l.AnomalyRate([]int{0, 1}) != 0 {
		t.Fatal("short sequence anomaly rate should be 0")
	}
}

func TestLSTMNumParams(t *testing.T) {
	l := NewLSTM(4, 8, 3, 1, 0.01, 1)
	l.Fit([][]int{{0, 1, 2, 3, 0, 1, 2, 3}})
	want := 4*((4+8)*8+8) + 8*4 + 4 // 4 gates + output head
	if got := l.params.NumElements(); got != want {
		t.Fatalf("%d parameters, want %d", got, want)
	}
}
