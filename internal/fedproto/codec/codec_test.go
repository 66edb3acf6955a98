package codec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// vectors is the shared property-test corpus: shapes and distributions a
// federated delta actually takes, plus adversarial edge cases.
func vectors() map[string][]float64 {
	rng := rand.New(rand.NewSource(42))
	gauss := make([]float64, 999)
	for i := range gauss {
		gauss[i] = rng.NormFloat64() * 0.01
	}
	skewed := make([]float64, 256)
	for i := range skewed {
		skewed[i] = math.Exp(rng.NormFloat64()) - 1
	}
	return map[string][]float64{
		"empty":    {},
		"single":   {0.25},
		"zeros":    make([]float64, 64),
		"constant": {3.5, 3.5, 3.5, 3.5},
		"gauss":    gauss,
		"skewed":   skewed,
		"tiny":     {1e-300, -1e-300, 0, 2e-300},
		"mixed":    {-1, 0, 1, 0.5, -0.25, 1e-9, -1e-9, 100},
	}
}

func TestNewResolvesEveryName(t *testing.T) {
	for _, name := range Names() {
		cdc, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if cdc.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, cdc.Name())
		}
	}
	if cdc, err := New(""); err != nil || cdc.Name() != Raw64 {
		t.Fatalf("New(\"\") = %v, %v; want raw64", cdc, err)
	}
	if _, err := New("zstd"); err == nil {
		t.Fatal("unknown scheme must be rejected")
	}
}

func TestRaw64BitIdentical(t *testing.T) {
	cdc, _ := New(Raw64)
	for name, v := range vectors() {
		got, err := cdc.Decode(cdc.Encode(v))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(v) {
			t.Fatalf("%s: length %d want %d", name, len(got), len(v))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("%s[%d]: %v != %v (raw64 must be bit-identical)",
					name, i, got[i], v[i])
			}
		}
	}
}

func TestQ8ErrorWithinHalfScale(t *testing.T) {
	cdc, _ := New(Q8)
	for name, v := range vectors() {
		tens := cdc.Encode(v)
		got, err := cdc.Decode(tens)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Documented bound: per-coordinate error ≤ Scale/2 with
		// Scale = (max−min)/255. A hair of slack covers the rounding of
		// Scale itself.
		bound := tens.Scale/2 + 1e-12*math.Abs(tens.Scale)
		for i := range v {
			if e := math.Abs(got[i] - v[i]); e > bound {
				t.Fatalf("%s[%d]: |%v − %v| = %v exceeds Scale/2 = %v",
					name, i, got[i], v[i], e, bound)
			}
		}
	}
}

func TestQ8RejectsNonFiniteInput(t *testing.T) {
	cdc, _ := New(Q8)
	for _, bad := range [][]float64{
		{1, math.NaN(), 3},
		{math.Inf(1), 0},
		{0, math.Inf(-1)},
	} {
		if _, err := cdc.Decode(cdc.Encode(bad)); err == nil {
			t.Fatalf("q8 round-trip of %v must fail like a NaN dense update", bad)
		}
	}
}

func TestTopKKeepsLargestMagnitudes(t *testing.T) {
	cdc, _ := New(TopK)
	v := make([]float64, 100)
	rng := rand.New(rand.NewSource(7))
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	tens := cdc.Encode(v)
	k := int(math.Ceil(DefaultTopKRatio * float64(len(v))))
	if len(tens.Idx) != k || len(tens.Vals) != k {
		t.Fatalf("kept %d/%d coordinates, want %d", len(tens.Idx), len(tens.Vals), k)
	}
	// The smallest kept magnitude dominates every dropped one.
	kept := map[uint32]bool{}
	minKept := math.Inf(1)
	for _, i := range tens.Idx {
		kept[i] = true
		if m := math.Abs(v[i]); m < minKept {
			minKept = m
		}
	}
	for i, x := range v {
		if !kept[uint32(i)] && math.Abs(x) > minKept {
			t.Fatalf("dropped |v[%d]| = %v > smallest kept %v", i, math.Abs(x), minKept)
		}
	}
	got, err := cdc.Decode(tens)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if kept[uint32(i)] {
			if x != float64(float32(v[i])) {
				t.Fatalf("kept coordinate %d decodes %v want %v", i, x, float64(float32(v[i])))
			}
		} else if x != 0 {
			t.Fatalf("dropped coordinate %d decodes %v want 0", i, x)
		}
	}
}

// TestTopKRejectsNonFinite: a NaN or ±Inf anywhere in the input is kept,
// so the reconstruction is non-finite and the server's finiteness gate
// evicts the sender — exactly as a NaN dense update would be.
func TestTopKRejectsNonFinite(t *testing.T) {
	cdc, _ := New(TopK)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		v := make([]float64, 1000)
		for i := range v {
			v[i] = rng.NormFloat64() * 0.01
		}
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[trial%3]
		v[rng.Intn(len(v))] = bad
		got, err := cdc.Decode(cdc.Encode(v))
		if err != nil {
			t.Fatal(err)
		}
		finite := true
		for _, x := range got {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
		if finite {
			t.Fatalf("trial %d: a delta holding %v reconstructs finite", trial, bad)
		}
	}
}

// TestTopKSelectMatchesSort holds the magnitude-key selection to the
// comparator sort it replaced (magnitude descending, index ascending, then
// the kept indices ascending), frame for frame, on every vector of the
// corpus and on tie-heavy ones.
func TestTopKSelectMatchesSort(t *testing.T) {
	sortTopK := func(v []float64, ratio float64) Tensor {
		t := Tensor{N: len(v)}
		if len(v) == 0 {
			return t
		}
		k := min(max(int(math.Ceil(ratio*float64(len(v)))), 1), len(v))
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			ma, mb := math.Abs(v[idx[a]]), math.Abs(v[idx[b]])
			if ma != mb {
				return ma > mb
			}
			return idx[a] < idx[b]
		})
		kept := append([]int(nil), idx[:k]...)
		sort.Ints(kept)
		for _, j := range kept {
			t.Idx = append(t.Idx, uint32(j))
			t.Vals = append(t.Vals, float64(float32(v[j])))
		}
		return t
	}
	corpus := vectors()
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 3, 10, 37, 500, 4096} {
		ties := make([]float64, n)
		signs := make([]float64, n)
		for i := range ties {
			ties[i] = float64(rng.Intn(4)) * 0.5
			signs[i] = math.Copysign(ties[i], float64(rng.Intn(2))-0.5)
		}
		corpus[fmt.Sprintf("ties%d", n)] = ties
		corpus[fmt.Sprintf("signedties%d", n)] = signs
		corpus[fmt.Sprintf("ascending%d", n)] = func() []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i)
			}
			return v
		}()
	}
	for _, ratio := range []float64{DefaultTopKRatio, 0.01, 0.5, 1} {
		cdc := topkCodec{Ratio: ratio}
		for name, v := range corpus {
			got, want := cdc.Encode(v), sortTopK(v, ratio)
			if got.N != want.N || !slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Vals, want.Vals) {
				t.Fatalf("%s at ratio %v: select keeps %v, sort keeps %v", name, ratio, got.Idx, want.Idx)
			}
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	// Ties in topk and boundary values in q8 must break identically across
	// encodes — reproducible wire bytes depend on it.
	v := []float64{1, -1, 1, -1, 0.5, 0.5, 0, 0}
	for _, name := range Names() {
		cdc, _ := New(name)
		a, b := cdc.Encode(v), cdc.Encode(v)
		da, _ := cdc.Decode(a)
		db, _ := cdc.Decode(b)
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("%s: two encodes of the same vector differ at %d", name, i)
			}
		}
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	cases := map[string]struct {
		scheme string
		t      Tensor
	}{
		"raw64 short":       {Raw64, Tensor{N: 3, Vals: []float64{1}}},
		"raw64 stray q":     {Raw64, Tensor{N: 1, Vals: []float64{1}, Q: []byte{1}}},
		"q8 short":          {Q8, Tensor{N: 4, Q: []byte{1, 2}}},
		"q8 nan scale":      {Q8, Tensor{N: 1, Q: []byte{0}, Scale: math.NaN()}},
		"q8 neg scale":      {Q8, Tensor{N: 1, Q: []byte{0}, Scale: -1}},
		"q8 inf offset":     {Q8, Tensor{N: 1, Q: []byte{0}, Offset: math.Inf(1)}},
		"topk mismatch":     {TopK, Tensor{N: 4, Idx: []uint32{0, 1}, Vals: []float64{1}}},
		"topk out of range": {TopK, Tensor{N: 2, Idx: []uint32{5}, Vals: []float64{1}}},
		"topk descending":   {TopK, Tensor{N: 4, Idx: []uint32{2, 1}, Vals: []float64{1, 2}}},
		"topk duplicate":    {TopK, Tensor{N: 4, Idx: []uint32{1, 1}, Vals: []float64{1, 2}}},
		"topk too many":     {TopK, Tensor{N: 1, Idx: []uint32{0, 1}, Vals: []float64{1, 2}}},
	}
	for name, c := range cases {
		cdc, _ := New(c.scheme)
		if _, err := cdc.Decode(c.t); err == nil {
			t.Errorf("%s: Decode accepted a malformed frame", name)
		}
	}
}

// q8Reference is the q8 encoder as first written: a finiteness call per
// value in the scan and math.Round per value in the quantisation.
func q8Reference(v []float64) Tensor {
	t := Tensor{N: len(v), Q: make([]byte, len(v))}
	if len(v) == 0 {
		return t
	}
	lo, hi := v[0], v[0]
	allFinite := finite(v[0])
	for _, x := range v[1:] {
		if !finite(x) {
			allFinite = false
			break
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	t.Offset = lo
	t.Scale = (hi - lo) / 255
	if !allFinite || !finite(t.Offset) || !finite(t.Scale) {
		t.Scale, t.Offset = math.NaN(), math.NaN()
		return t
	}
	if t.Scale > 0 {
		inv := 1 / t.Scale
		for i, x := range v {
			q := math.Round((x - lo) * inv)
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
			t.Q[i] = byte(q)
		}
	}
	return t
}

// TestQ8EncodeMatchesReference: the q8 encoder's frame is the reference's,
// bit for bit — Q, Scale and Offset — on the corpus, on values that land
// on and beside every half step, on ±0 ranges, non-finite inputs at every
// position, a range wide enough to overflow the scale, and a denormal
// scale whose inverse is infinite.
func TestQ8EncodeMatchesReference(t *testing.T) {
	cases := vectors()
	halves := make([]float64, 0, 3*256)
	for k := 0; k < 256; k++ {
		h := float64(k) + 0.5
		halves = append(halves, h, math.Nextafter(h, 0), math.Nextafter(h, 512))
	}
	halves = append(halves, 0, 255)
	cases["halves"] = halves
	cases["signed zeros"] = []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)}
	cases["negative zero first"] = []float64{math.Copysign(0, -1), 0, 1}
	cases["overflowing range"] = []float64{-math.MaxFloat64, math.MaxFloat64, 0}
	cases["denormal scale"] = []float64{0, 1e-310, 5e-324, 2e-310}
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 1, 3} {
			v := []float64{0.5, -0.25, 0.75, 0.125}
			v[at] = bad
			cases[fmt.Sprintf("non-finite %d at %d", i, at)] = v
		}
	}
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 50; n++ {
		v := make([]float64, 1+rng.Intn(300))
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		cases[fmt.Sprintf("random %d", n)] = v
	}
	cdc, _ := New(Q8)
	for name, v := range cases {
		got, want := cdc.Encode(v), q8Reference(v)
		if got.N != want.N || !slices.Equal(got.Q, want.Q) ||
			math.Float64bits(got.Scale) != math.Float64bits(want.Scale) ||
			math.Float64bits(got.Offset) != math.Float64bits(want.Offset) {
			t.Errorf("%s: encoded N=%d scale %v offset %v Q %v, reference N=%d scale %v offset %v Q %v",
				name, got.N, got.Scale, got.Offset, got.Q, want.N, want.Scale, want.Offset, want.Q)
		}
	}
}

// BenchmarkQ8Encode times the q8 encoder alone on one paper-dims GIN's
// worth of delta (54,400 values).
func BenchmarkQ8Encode(b *testing.B) {
	delta := benchDelta(54400)
	cdc, _ := New(Q8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cdc.Encode(delta)
	}
}
