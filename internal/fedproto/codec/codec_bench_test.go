package codec

import (
	"fmt"
	"math"
	"testing"
)

// benchDelta models one round's parameter delta: small, roughly centred
// values with a few dominant coordinates, the shape real training updates
// take after a local epoch.
func benchDelta(n int) []float64 {
	out := make([]float64, n)
	s := uint64(0x1234abcd)
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		out[i] = (float64(s>>11)/float64(1<<53) - 0.5) * 0.01
		if i%97 == 0 {
			out[i] *= 20 // sparse dominant spikes for topk to find
		}
	}
	return out
}

// BenchmarkCodecs measures encode+decode round trips per scheme and reports
// the estimated gob wire bytes per update (wire-B/op) and the compression
// ratio against dense raw64 (ratio-x). The q8 ratio is the acceptance pin:
// it must exceed 4x, which TestQ8BeatsRaw64ByFourX asserts so the number is
// enforced in `go test`, not only eyeballed in bench output.
func BenchmarkCodecs(b *testing.B) {
	const n = 4096
	delta := benchDelta(n)
	rawBytes := float64(mustWire(b, Raw64, delta))
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			cdc, err := New(name)
			if err != nil {
				b.Fatal(err)
			}
			var wire int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := cdc.Encode(delta)
				wire = t.WireBytes()
				if _, err := cdc.Decode(t); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire), "wire-B/op")
			b.ReportMetric(rawBytes/float64(wire), "ratio-x")
		})
	}
}

func mustWire(tb testing.TB, name string, vals []float64) int64 {
	tb.Helper()
	cdc, err := New(name)
	if err != nil {
		tb.Fatal(err)
	}
	return cdc.Encode(vals).WireBytes()
}

// TestQ8BeatsRaw64ByFourX pins the benchmark's headline number as a hard
// test: on the benchmark delta distribution, q8 wire bytes must be at
// least 4x smaller than dense raw64, and topk must beat raw64 too.
func TestQ8BeatsRaw64ByFourX(t *testing.T) {
	delta := benchDelta(4096)
	raw := mustWire(t, Raw64, delta)
	for _, tc := range []struct {
		name string
		min  float64
	}{{Q8, 4}, {TopK, 2}} {
		wire := mustWire(t, tc.name, delta)
		ratio := float64(raw) / float64(wire)
		if ratio < tc.min {
			t.Errorf("%s: %d wire bytes vs %d raw64 — %.2fx, want ≥%.1fx",
				tc.name, wire, raw, ratio, tc.min)
		}
	}
}

// TestBenchDeltaReconstructs sanity-checks the benchmark corpus itself:
// every lossy scheme stays within its documented error bound on it, so the
// ratios above are earned on decodable, not degenerate, frames.
func TestBenchDeltaReconstructs(t *testing.T) {
	delta := benchDelta(4096)
	cdc, _ := New(Q8)
	got, err := cdc.Decode(cdc.Encode(delta))
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range delta {
		worst = math.Max(worst, math.Abs(got[i]-delta[i]))
	}
	// q8 bound: half a quantisation step over the ±0.1 spike range.
	if worst > 0.1/255+1e-9 {
		t.Fatalf("q8 worst-case error %v", worst)
	}
	if t.Failed() {
		fmt.Println("benchmark corpus no longer representative")
	}
}
