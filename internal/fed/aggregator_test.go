package fed

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// uniformW builds uniform normalised weights for n clients.
func uniformW(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

func TestMeanAggMatchesWeightedMean(t *testing.T) {
	vecs := [][]float64{{1, 2}, {3, 6}}
	got := MeanAgg{}.Aggregate(vecs, []float64{0.75, 0.25})
	if got[0] != 1.5 || got[1] != 3 {
		t.Fatalf("weighted mean %v, want [1.5 3]", got)
	}
}

// TestTrimmedMeanDropsOutliers pins the closed form: with one poisoned
// client per tail trimmed, a 1000× scaled coordinate cannot move the
// aggregate at all.
func TestTrimmedMeanDropsOutliers(t *testing.T) {
	vecs := [][]float64{{1}, {2}, {3}, {1000}, {-1000}}
	got := TrimmedMeanAgg{Trim: 1}.Aggregate(vecs, uniformW(5))
	if got[0] != 2 {
		t.Fatalf("trimmed mean %v, want 2", got[0])
	}
	// Auto trim for n=5 is floor(4/3)=1 — same result.
	if got := (TrimmedMeanAgg{}).Aggregate(vecs, uniformW(5)); got[0] != 2 {
		t.Fatalf("auto-trimmed mean %v, want 2", got[0])
	}
	// Trim so large it would empty the window degrades instead of panicking.
	if got := (TrimmedMeanAgg{Trim: 10}).Aggregate(vecs, uniformW(5)); got[0] != 2 {
		t.Fatalf("over-trimmed mean %v, want 2 (median survivor)", got[0])
	}
}

// TestSortFreeAggregatorsMatchDefinition holds TrimmedMeanAgg and MedianAgg
// to their definitions — sort each column with sort.Float64s, then sum the
// middle — bit for bit, for n = 2…13 and every Trim, on columns drawn from a
// small pool so that ties, −0 next to +0, ±Inf, denormals and NaNs with
// different payloads meet often.
func TestSortFreeAggregatorsMatchDefinition(t *testing.T) {
	column := func(vecs [][]float64, j int) []float64 {
		col := make([]float64, len(vecs))
		for i, v := range vecs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		return col
	}
	refTrimmed := func(vecs [][]float64, trim int) []float64 {
		n := len(vecs)
		out := make([]float64, len(vecs[0]))
		for j := range out {
			col := column(vecs, j)
			var s float64
			for i := trim; i < n-trim; i++ {
				s += col[i]
			}
			out[j] = s / float64(n-2*trim)
		}
		return out
	}
	refMedian := func(vecs [][]float64) []float64 {
		n := len(vecs)
		out := make([]float64, len(vecs[0]))
		for j := range out {
			col := column(vecs, j)
			if n%2 == 1 {
				out[j] = col[n/2]
			} else {
				out[j] = (col[n/2-1] + col[n/2]) / 2
			}
		}
		return out
	}
	pool := []float64{
		0, math.Copysign(0, -1), 1, -1, 1, 2.5, -2.5, 1e-300, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
	}
	r := rand.New(rand.NewSource(11))
	same := func(got, want []float64) int {
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				return j
			}
		}
		return -1
	}
	for n := 2; n <= 13; n++ {
		const dim = 4000
		vecs := make([][]float64, n)
		for i := range vecs {
			vecs[i] = make([]float64, dim)
			for j := range vecs[i] {
				// Mostly finite columns, so the NaN-free paths see most of them.
				if j%4 == 0 {
					vecs[i][j] = pool[r.Intn(len(pool))]
				} else {
					vecs[i][j] = pool[r.Intn(len(pool)-3)]
				}
			}
		}
		w := uniformW(n)
		for trim := 0; trim <= n; trim++ {
			agg := TrimmedMeanAgg{Trim: trim}
			want := refTrimmed(vecs, agg.trimFor(n))
			if agg.trimFor(n) == 0 {
				want = MeanAgg{}.Aggregate(vecs, w)
			}
			if j := same(agg.Aggregate(vecs, w), want); j >= 0 {
				t.Fatalf("n=%d Trim=%d column %v: trimmed mean %v, definition %v",
					n, trim, column(vecs, j), agg.Aggregate(vecs, w)[j], want[j])
			}
		}
		if j := same(MedianAgg{}.Aggregate(vecs, w), refMedian(vecs)); j >= 0 {
			t.Fatalf("n=%d column %v: median %v, definition %v",
				n, column(vecs, j), MedianAgg{}.Aggregate(vecs, w)[j], refMedian(vecs)[j])
		}
	}
}

func TestMedianAggOddEven(t *testing.T) {
	odd := [][]float64{{1, 5}, {2, 6}, {100, -100}}
	got := MedianAgg{}.Aggregate(odd, uniformW(3))
	if got[0] != 2 || got[1] != 5 {
		t.Fatalf("odd median %v, want [2 5]", got)
	}
	even := [][]float64{{1}, {3}, {5}, {1000}}
	if got := (MedianAgg{}).Aggregate(even, uniformW(4)); got[0] != 4 {
		t.Fatalf("even median %v, want 4", got[0])
	}
}

// TestNormClipBoundsOutlierPull pins the centered-clipping property: the
// poisoned client's pull is bounded by the clip radius, so the aggregate
// stays within clip of the honest coordinate-wise median.
func TestNormClipBoundsOutlierPull(t *testing.T) {
	vecs := [][]float64{{1, 0}, {1.1, 0}, {0.9, 0}, {1000, 0}}
	got := NormClipAgg{Clip: 0.5}.Aggregate(vecs, uniformW(4))
	// Center is the coordinate-wise median (1.05 at coord 0); every
	// client's deviation is clipped to ≤ 0.5, so the result stays within
	// the clip radius of the honest neighbourhood.
	if math.Abs(got[0]-1.05) > 0.5 {
		t.Fatalf("norm-clipped mean %v strayed more than clip from median 1.05", got[0])
	}
	// Unclipped FedAvg would be ≈ 250.75 — verify the defence actually bit.
	if got[0] > 2 {
		t.Fatalf("norm-clipped mean %v, outlier dominated", got[0])
	}
	// Auto radius (median deviation norm) must also hold the line.
	if got := (NormClipAgg{}).Aggregate(vecs, uniformW(4)); got[0] > 2 {
		t.Fatalf("auto norm-clipped mean %v, outlier dominated", got[0])
	}
}

// TestKrumExcludesOutlier pins Krum selection: the far-away Byzantine
// vector scores worst and never enters the aggregate.
func TestKrumExcludesOutlier(t *testing.T) {
	vecs := [][]float64{{1, 1}, {1.1, 1}, {0.9, 1}, {1, 1.1}, {500, -500}}
	w := uniformW(5)
	one := KrumAgg{M: 1, F: 1}.Aggregate(vecs, w)
	if math.Abs(one[0]) > 2 || math.Abs(one[1]) > 2 {
		t.Fatalf("krum selected the outlier: %v", one)
	}
	multi := KrumAgg{F: 1}.Aggregate(vecs, w)
	if math.Abs(multi[0]-1) > 0.2 || math.Abs(multi[1]-1) > 0.2 {
		t.Fatalf("multi-krum aggregate %v, want ≈ [1 1]", multi)
	}
	// Tiny federations degrade to the mean instead of panicking.
	small := KrumAgg{}.Aggregate([][]float64{{2}, {4}}, uniformW(2))
	if small[0] != 3 {
		t.Fatalf("n=2 krum %v, want mean 3", small[0])
	}
}

func TestNewAggregatorRegistry(t *testing.T) {
	for _, name := range AggregatorNames() {
		a, err := NewAggregator(name)
		if err != nil {
			t.Fatalf("NewAggregator(%q): %v", name, err)
		}
		if a.Name() != name && !(name == "fedavg" && a.Name() == "fedavg") {
			t.Fatalf("NewAggregator(%q).Name() = %q", name, a.Name())
		}
	}
	if a, err := NewAggregator(""); err != nil || a.Name() != "fedavg" {
		t.Fatalf("empty name must select fedavg, got %v, %v", a, err)
	}
	if _, err := NewAggregator("bogus"); err == nil {
		t.Fatal("unknown aggregator must error")
	}
}

// TestAggregateParamsRoundTrip checks the flatten/aggregate/unflatten path
// writes robust aggregates back into the right tensors, and that the
// FedAvg path is Σ wᵢ·vᵢ from zero in client order, bit for bit.
func TestAggregateParamsRoundTrip(t *testing.T) {
	mk := func(a, b, c, d float64) *autodiff.ParamSet {
		p := autodiff.NewParamSet()
		p.Register("l0.w", 0, mat.NewDenseData(1, 2, []float64{a, b}))
		p.Register("l1.w", 1, mat.NewDenseData(1, 2, []float64{c, d}))
		return p
	}
	sets := []*autodiff.ParamSet{mk(1, 2, 3, 4), mk(3, 4, 5, 6), mk(1000, -1000, 1000, -1000)}
	w := []float64{0.4, 0.4, 0.2}

	dst := mk(0, 0, 0, 0)
	AggregateParams(MedianAgg{}, dst, sets, w)
	want := []float64{3, 2, 5, 4}
	for i, v := range dst.Flatten() {
		if v != want[i] {
			t.Fatalf("median params %v, want %v", dst.Flatten(), want)
		}
	}

	// The FedAvg path against the scalar oracle: one separately rounded
	// multiply and add a client (float64() forbids fusing them).
	mean := mk(0, 0, 0, 0)
	AggregateParams(MeanAgg{}, mean, sets, w)
	for j, v := range mean.Flatten() {
		var s float64
		for i, set := range sets {
			s += float64(w[i] * set.Flatten()[j])
		}
		if math.Float64bits(v) != math.Float64bits(s) {
			t.Fatalf("mean coordinate %d = %v, oracle Σ wᵢ·vᵢ = %v", j, v, s)
		}
	}
}

// TestAggregateParamsAllocs pins AggregateParams to reading each set's slab
// in place: four GIN sets at the paper's 64/32 widths cost one slice of
// views and the aggregator's output, where flattening every set cost six
// allocations and about 1 MB a call.
func TestAggregateParamsAllocs(t *testing.T) {
	dim := fusion.WordFeatureDim(embed.NewEncoder(300, 512))
	sets := make([]*autodiff.ParamSet, 4)
	for i := range sets {
		sets[i] = gnn.NewGIN(dim, 64, 32, int64(i+1)).Params()
	}
	dst := sets[0].Clone()
	w := uniformW(len(sets))
	if avg := testing.AllocsPerRun(10, func() { AggregateParams(MeanAgg{}, dst, sets, w) }); avg > 2 {
		t.Fatalf("AggregateParams allocates %.1f/op, want ≤ 2", avg)
	}
}

// TestAggregateParamsMeanIdentityProperty: FedAvg of k identical models is
// the model itself.
func TestAggregateParamsMeanIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := rng.New(seed)
		base := autodiff.NewParamSet()
		base.Register("w", 0, g.Gaussian(3, 3, 1))
		k := int(seed%4+4)%4 + 2
		sets := make([]*autodiff.ParamSet, k)
		weights := make([]float64, k)
		for i := range sets {
			sets[i] = base.Clone()
			weights[i] = 1 / float64(k)
		}
		dst := base.Clone()
		AggregateParams(MeanAgg{}, dst, sets, weights)
		return dst.Get("w").Equalish(base.Get("w"), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFinite(t *testing.T) {
	if i := mat.CheckFinite([]float64{1, 2, 3}); i != -1 {
		t.Fatalf("finite vector flagged at %d", i)
	}
	if i := mat.CheckFinite([]float64{1, math.NaN(), 3}); i != 1 {
		t.Fatalf("NaN index %d, want 1", i)
	}
	if i := mat.CheckFinite([]float64{math.Inf(-1)}); i != 0 {
		t.Fatalf("-Inf index %d, want 0", i)
	}
	if mat.AllFinite([]float64{0, math.Inf(1)}) {
		t.Fatal("AllFinite missed +Inf")
	}
}
