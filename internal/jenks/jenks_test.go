package jenks

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestBreaksTwoClusters(t *testing.T) {
	data := []float64{1, 2, 1.5, 2.2, 1.1, 30, 31, 29, 30.5}
	b := Breaks(data, 2)
	if len(b) != 1 {
		t.Fatalf("breaks = %v", b)
	}
	if b[0] < 2.2 || b[0] >= 29 {
		t.Fatalf("break %v should separate the clusters", b[0])
	}
}

func TestBreaksThreeClusters(t *testing.T) {
	data := []float64{1, 1.2, 0.9, 10, 10.5, 9.8, 50, 51, 49}
	b := Breaks(data, 3)
	if len(b) != 2 {
		t.Fatalf("breaks = %v", b)
	}
	if !(b[0] >= 0.9 && b[0] < 9.8 && b[1] >= 10 && b[1] < 49) {
		t.Fatalf("breaks %v misplaced", b)
	}
}

func TestBreaksMatchExhaustiveK2(t *testing.T) {
	// For k=2 the optimal split minimises total within-class variance; brute
	// force over all split points must agree with the DP.
	data := []float64{3, 7, 1, 9, 4, 15, 16, 2, 14}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	sse := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var m float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		var s float64
		for _, x := range xs {
			s += (x - m) * (x - m)
		}
		return s
	}
	bestCost := 1e300
	var bestBreak float64
	for i := 1; i < len(sorted); i++ {
		c := sse(sorted[:i]) + sse(sorted[i:])
		if c < bestCost {
			bestCost = c
			bestBreak = sorted[i-1]
		}
	}
	got := Breaks(data, 2)
	if len(got) != 1 || got[0] != bestBreak {
		t.Fatalf("DP break %v, exhaustive %v", got, bestBreak)
	}
}

func TestBreaksMonotoneProperty(t *testing.T) {
	f := func(raw []float64, kRaw uint8) bool {
		if len(raw) < 3 {
			return true
		}
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v == v && v < 1e100 && v > -1e100 { // drop NaN/huge
				data = append(data, v)
			}
		}
		if len(data) < 3 {
			return true
		}
		k := 2 + int(kRaw)%3
		b := Breaks(data, k)
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				return false
			}
		}
		// Breaks lie within the data range.
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		for _, x := range b {
			if x < sorted[0] || x > sorted[len(sorted)-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBreaksDegenerate(t *testing.T) {
	if b := Breaks(nil, 2); b != nil {
		t.Fatalf("empty data breaks = %v", b)
	}
	if b := Breaks([]float64{5}, 3); len(b) != 0 {
		t.Fatalf("single value breaks = %v", b)
	}
	// All identical values: dedupe collapses breaks.
	b := Breaks([]float64{2, 2, 2, 2}, 3)
	if len(b) > 1 {
		t.Fatalf("identical data breaks = %v", b)
	}
}

func TestClassify(t *testing.T) {
	breaks := []float64{10, 20}
	cases := map[float64]int{5: 0, 10: 0, 15: 1, 20: 1, 25: 2}
	for v, want := range cases {
		if got := Classify(v, breaks); got != want {
			t.Errorf("Classify(%v) = %d want %d", v, got, want)
		}
	}
}

// TestToLogical composes the three calls the way eventlog.Clean turns a
// numeric reading into a level word.
func TestToLogical(t *testing.T) {
	history := []float64{20, 22, 25, 30, 31, 33, 60, 62, 65, 70}
	// 20s-30s cluster vs 60-70 cluster with k=2.
	breaks := Breaks(history, 2)
	names := LevelNames(len(breaks) + 1)
	for v, want := range map[float64]string{25: "low", 65: "high"} {
		if got := names[Classify(v, breaks)]; got != want {
			t.Errorf("%v → %q, want %q", v, got, want)
		}
	}
}

func TestLevelNames(t *testing.T) {
	if got := LevelNames(2); got[0] != "low" || got[1] != "high" {
		t.Fatalf("LevelNames(2) = %v", got)
	}
	if got := LevelNames(3); got[1] != "medium" {
		t.Fatalf("LevelNames(3) = %v", got)
	}
	if got := LevelNames(5); len(got) != 5 {
		t.Fatalf("LevelNames(5) = %v", got)
	}
}

func TestBreaksPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k<2")
		}
	}()
	Breaks([]float64{1, 2}, 1)
}
