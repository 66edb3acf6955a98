package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample: the smallest value with at least p% of the
// sample at or below it. Nearest-rank never interpolates, so the result is
// always a latency that was actually observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle of the sample (mean of the two middle values for an
// even count), 0 for an empty one.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean, 0 for an empty sample.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the default "exclusive" method), so
// repeat.sh judges spread exactly the way the acceptance pipeline does.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// The quiet quartile. The benchmark runs on a few vCPUs of a shared host,
// whose other tenants slow it for seconds at a time — by up to half, and only
// ever slow it. Every timed phase is therefore cut into one-second slices,
// each slice is summarised on its own (its median latency, its operations
// completed, its CPU per operation), and the run reports the quartile of the
// slice values on the quiet side: the 25th percentile of a cost, the 75th of
// a rate. That number holds while at least a quarter of the run's seconds
// were undisturbed; the median over the slices flips as soon as half are
// disturbed. (Ten 18-s runs of detect_http in a noisy hour: the median over
// slices spread 9.5 % between runs, the quiet quartile 6.3 %.)

// quietLow is the quiet quartile of a cost (lower is better) over slices.
func quietLow(perSlice []float64) float64 { return percentile(sortedCopy(perSlice), 25) }

// quietHigh is the quiet quartile of a rate (higher is better) over slices.
func quietHigh(perSlice []float64) float64 { return percentile(sortedCopy(perSlice), 75) }

// minSlices is how many slices a quiet quartile needs; with fewer, the
// whole sample is summarised instead.
const minSlices = 4

// sliceQuiet splits samples (value, time offset) into consecutive time
// slices of the given width and returns, for each percentile p, the quiet
// quartile across slices of each slice's p-th percentile (nearest-rank).
// Slices with fewer than minPerSlice values are left out, and when fewer
// than minSlices remain the whole sample's percentile is returned.
func sliceQuiet(vals, at []float64, width float64, minPerSlice int, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(vals) == 0 {
		return out
	}
	buckets := map[int][]float64{}
	for i, v := range vals {
		k := int(at[i] / width)
		buckets[k] = append(buckets[k], v)
	}
	perSlice := make([][]float64, len(ps))
	for _, b := range buckets {
		if len(b) < minPerSlice {
			continue
		}
		s := sortedCopy(b)
		for j, p := range ps {
			perSlice[j] = append(perSlice[j], percentile(s, p))
		}
	}
	if len(perSlice[0]) < minSlices {
		s := sortedCopy(vals)
		for j, p := range ps {
			out[j] = percentile(s, p)
		}
		return out
	}
	for j := range ps {
		out[j] = quietLow(perSlice[j])
	}
	return out
}
