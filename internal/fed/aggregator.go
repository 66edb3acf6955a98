package fed

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fexiot/internal/autodiff"
	"fexiot/internal/mat"
)

// Aggregator combines the (flattened) parameter vectors of a client subset
// into one aggregate vector. FedAvg trusts every vector; the robust
// variants bound the influence any single Byzantine client can exert on
// the result, which is what keeps a poisoned household from corrupting the
// global FexIoT model every platform shares. All aggregators are
// deterministic functions of their inputs, so the in-process simulator and
// the networked fedproto server produce bit-identical rounds from the same
// updates.
//
// vecs[i] is client i's vector, weights[i] its FedAvg data weight
// (normalised to sum 1, as produced by QuorumWeights). Aggregators that
// ignore weights (median, Krum) still receive them so one call site serves
// every scheme. The input vectors are never mutated.
type Aggregator interface {
	Name() string
	Aggregate(vecs [][]float64, weights []float64) []float64
}

// --- Weighted mean (FedAvg) -------------------------------------------------

// MeanAgg is the classic FedAvg data-weighted mean — the repository's
// historical behaviour and the zero-value default of Config.Aggregator.
type MeanAgg struct{}

// Name identifies the aggregator.
func (MeanAgg) Name() string { return "fedavg" }

// Aggregate returns Σ wᵢ·vᵢ.
func (MeanAgg) Aggregate(vecs [][]float64, weights []float64) []float64 {
	out := make([]float64, len(vecs[0]))
	for i, v := range vecs {
		mat.Axpy(out, v, weights[i])
	}
	return out
}

// --- Coordinate-wise trimmed mean ------------------------------------------

// TrimmedMeanAgg is the coordinate-wise trimmed mean (Yin et al., ICML'18):
// at every coordinate the Trim largest and Trim smallest client values are
// discarded and the survivors averaged uniformly. It tolerates up to Trim
// Byzantine clients per coordinate.
type TrimmedMeanAgg struct {
	// Trim is the number of values cut from each tail per coordinate. Zero
	// auto-sizes to floor((n−1)/3), never trimming below one survivor.
	Trim int
}

// Name identifies the aggregator.
func (a TrimmedMeanAgg) Name() string { return "trimmed" }

// trimFor resolves the per-tail cut for n clients.
func (a TrimmedMeanAgg) trimFor(n int) int {
	t := a.Trim
	if t <= 0 {
		t = (n - 1) / 3
	}
	if 2*t >= n {
		t = (n - 1) / 2
	}
	return t
}

// Aggregate computes the coordinate-wise trimmed mean.
func (a TrimmedMeanAgg) Aggregate(vecs [][]float64, weights []float64) []float64 {
	n := len(vecs)
	t := a.trimFor(n)
	if t == 0 {
		return MeanAgg{}.Aggregate(vecs, weights)
	}
	out := make([]float64, len(vecs[0]))
	col := make([]float64, n)
	for j := range out {
		if n == 4 {
			// t = 1 at n = 4: the survivors are max(pairwise minima) and
			// min(pairwise maxima), the sorted middle up to zero signs, which a
			// sum from +0 cannot see; a NaN column takes the sort (DESIGN §4.9).
			w, x, y, z := vecs[0][j], vecs[1][j], vecs[2][j], vecs[3][j]
			if !math.IsNaN(w) && !math.IsNaN(x) && !math.IsNaN(y) && !math.IsNaN(z) {
				out[j] = (0 + max(min(w, x), min(y, z)) + min(max(w, x), max(y, z))) / 2
				continue
			}
		}
		for i, v := range vecs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		var s float64
		for i := t; i < n-t; i++ {
			s += col[i]
		}
		out[j] = s / float64(n-2*t)
	}
	return out
}

// --- Coordinate-wise median -------------------------------------------------

// MedianAgg is the coordinate-wise median — the maximally trimmed mean,
// robust to any minority of Byzantine clients at the cost of discarding the
// data-size weighting entirely.
type MedianAgg struct{}

// Name identifies the aggregator.
func (MedianAgg) Name() string { return "median" }

// Aggregate computes the coordinate-wise median.
func (MedianAgg) Aggregate(vecs [][]float64, weights []float64) []float64 {
	n := len(vecs)
	out := make([]float64, len(vecs[0]))
	col := make([]float64, n)
	for j := range out {
		for i, v := range vecs {
			col[i] = v[j]
		}
		sort.Float64s(col)
		if n%2 == 1 {
			out[j] = col[n/2]
		} else {
			out[j] = (col[n/2-1] + col[n/2]) / 2
		}
	}
	return out
}

// --- Norm-clipped (centered-clipping) mean ----------------------------------

// NormClipAgg is a centered-clipping mean (after Karimireddy et al.): each
// client vector's deviation from the coordinate-wise median is clipped to a
// radius before the data-weighted mean is taken, so a scaled or diverged
// update contributes at most a bounded pull in its own direction.
type NormClipAgg struct {
	// Clip is the deviation-norm radius. Zero auto-calibrates to the median
	// of the clients' deviation norms, which adapts across rounds as the
	// federation converges.
	Clip float64
}

// Name identifies the aggregator.
func (a NormClipAgg) Name() string { return "normclip" }

// Aggregate clips deviations from the coordinate-wise median, then averages.
func (a NormClipAgg) Aggregate(vecs [][]float64, weights []float64) []float64 {
	center := MedianAgg{}.Aggregate(vecs, weights)
	norms := make([]float64, len(vecs))
	for i, v := range vecs {
		var s float64
		for j, x := range v {
			d := x - center[j]
			s += d * d
		}
		norms[i] = math.Sqrt(s)
	}
	clip := a.Clip
	if clip <= 0 {
		clip = mat.Median(norms)
	}
	out := append([]float64(nil), center...)
	for i, v := range vecs {
		scale := weights[i]
		if norms[i] > clip && norms[i] > 0 {
			scale *= clip / norms[i]
		}
		// out = center + Σ wᵢ·clip(vᵢ−center)
		for j, x := range v {
			out[j] += scale * (x - center[j])
		}
	}
	return out
}

// --- (Multi-)Krum -----------------------------------------------------------

// KrumAgg is (Multi-)Krum (Blanchard et al., NeurIPS'17): each client is
// scored by the sum of its squared distances to its n−f−2 nearest
// neighbours; the M lowest-scoring clients are selected and averaged with
// renormalised data weights. M=1 is classic Krum (a single selected
// vector), larger M trades robustness for averaging variance reduction.
type KrumAgg struct {
	// F is the number of Byzantine clients tolerated. Zero auto-sizes to
	// floor((n−1)/3) capped so at least one neighbour remains.
	F int
	// M is the number of selected clients to average; zero selects
	// max(1, n−F−2) (Multi-Krum), one is classic Krum.
	M int
}

// Name identifies the aggregator.
func (a KrumAgg) Name() string {
	if a.M == 1 {
		return "krum"
	}
	return "multikrum"
}

// Aggregate selects by Krum score and averages the selection.
func (a KrumAgg) Aggregate(vecs [][]float64, weights []float64) []float64 {
	n := len(vecs)
	f := a.F
	if f <= 0 {
		f = (n - 1) / 3
	}
	// Krum needs n−f−2 ≥ 1 neighbours; degrade f rather than panic on tiny
	// federations.
	if f > n-3 {
		f = n - 3
	}
	if f < 0 {
		f = 0
	}
	if n <= 2 {
		return MeanAgg{}.Aggregate(vecs, weights)
	}
	// Pairwise squared distances.
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for k, x := range vecs[i] {
				d := x - vecs[j][k]
				s += d * d
			}
			d2[i][j], d2[j][i] = s, s
		}
	}
	// Score: sum of the n−f−2 smallest distances to the others.
	neigh := n - f - 2
	if neigh < 1 {
		neigh = 1
	}
	scores := make([]float64, n)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, d2[i][j])
			}
		}
		sort.Float64s(row)
		for _, d := range row[:neigh] {
			scores[i] += d
		}
	}
	m := a.M
	if m <= 0 {
		m = n - f - 2
	}
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	order := indexRange(n)
	sort.SliceStable(order, func(x, y int) bool { return scores[order[x]] < scores[order[y]] })
	sel := order[:m]
	// Renormalise the selection's data weights.
	var wsum float64
	for _, i := range sel {
		wsum += weights[i]
	}
	out := make([]float64, len(vecs[0]))
	for _, i := range sel {
		w := 1 / float64(m)
		if wsum > 0 {
			w = weights[i] / wsum
		}
		mat.Axpy(out, vecs[i], w)
	}
	return out
}

// --- Registry ---------------------------------------------------------------

// AggregatorNames lists the selectable aggregator names accepted by
// NewAggregator (and the fexserver -agg flag).
func AggregatorNames() []string {
	return []string{"fedavg", "trimmed", "median", "normclip", "krum", "multikrum"}
}

// NewAggregator resolves an aggregator by name. The empty string selects
// FedAvg, preserving the behaviour of configurations that predate the
// robust-aggregation subsystem.
func NewAggregator(name string) (Aggregator, error) {
	switch name {
	case "", "fedavg", "mean":
		return MeanAgg{}, nil
	case "trimmed":
		return TrimmedMeanAgg{}, nil
	case "median":
		return MedianAgg{}, nil
	case "normclip":
		return NormClipAgg{}, nil
	case "krum":
		return KrumAgg{M: 1}, nil
	case "multikrum":
		return KrumAgg{}, nil
	default:
		return nil, fmt.Errorf("fed: unknown aggregator %q (valid: %s)",
			name, strings.Join(AggregatorNames(), ", "))
	}
}

// aggregatorOr resolves a Config's aggregator, defaulting to FedAvg.
func aggregatorOr(a Aggregator) Aggregator {
	if a == nil {
		return MeanAgg{}
	}
	return a
}

// AggregateParams overwrites dst with the aggregate of the given parameter
// sets under agg, over each set's whole slab — the combine step of the
// whole-model algorithms (FedAvg, FMTL, GCFL+). dst may be one of sets.
func AggregateParams(agg Aggregator, dst *autodiff.ParamSet, sets []*autodiff.ParamSet, weights []float64) {
	if len(sets) != len(weights) {
		panic("fed: AggregateParams length mismatch")
	}
	vecs := make([][]float64, len(sets))
	for i, s := range sets {
		vecs[i] = s.Data()
	}
	dst.SetFlatten(agg.Aggregate(vecs, weights))
}
