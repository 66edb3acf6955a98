// Package jenks implements the Jenks natural-breaks classification
// algorithm (Fisher's exact dynamic program). FexIoT uses it to convert
// numerical sensor readings in event logs ("humidity is 32") into the
// logical levels app descriptions speak of ("humidity is low"), §III-A2.
package jenks

import (
	"fmt"
	"sort"
)

// Breaks computes the k-class natural breaks for data. It returns the k-1
// upper boundaries of the first k-1 classes (ascending); a value v belongs
// to class i when v ≤ breaks[i] (last class otherwise). Duplicates in data
// are fine. k must be ≥ 2; when the data has fewer distinct values than k,
// the effective class count shrinks gracefully.
func Breaks(data []float64, k int) []float64 {
	if k < 2 {
		panic(fmt.Sprintf("jenks: k = %d; need ≥ 2", k))
	}
	if len(data) == 0 {
		return nil
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	n := len(sorted)
	if k > n {
		k = n
	}
	if k < 2 {
		return nil
	}

	// Fisher-Jenks dynamic program over prefix sums.
	// cost(i,j) = within-class sum of squared deviations of sorted[i..j].
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, v := range sorted {
		prefix[i+1] = prefix[i] + v
		prefixSq[i+1] = prefixSq[i] + v*v
	}
	cost := func(i, j int) float64 { // inclusive indices
		cnt := float64(j - i + 1)
		s := prefix[j+1] - prefix[i]
		sq := prefixSq[j+1] - prefixSq[i]
		return sq - s*s/cnt
	}

	const inf = 1e300
	// dp[c][j] = minimal cost of splitting sorted[0..j] into c+1 classes.
	dp := make([][]float64, k)
	arg := make([][]int, k)
	for c := range dp {
		dp[c] = make([]float64, n)
		arg[c] = make([]int, n)
	}
	for j := 0; j < n; j++ {
		dp[0][j] = cost(0, j)
	}
	for c := 1; c < k; c++ {
		for j := 0; j < n; j++ {
			dp[c][j] = inf
			if j < c {
				continue
			}
			for split := c; split <= j; split++ {
				v := dp[c-1][split-1] + cost(split, j)
				if v < dp[c][j] {
					dp[c][j] = v
					arg[c][j] = split
				}
			}
		}
	}

	// Recover the break positions.
	var cuts []int
	j := n - 1
	for c := k - 1; c >= 1; c-- {
		split := arg[c][j]
		cuts = append(cuts, split)
		j = split - 1
		if j < 0 {
			break
		}
	}
	// cuts are the start indices of classes 1..k-1, in reverse order.
	breaks := make([]float64, 0, len(cuts))
	for i := len(cuts) - 1; i >= 0; i-- {
		breaks = append(breaks, sorted[cuts[i]-1])
	}
	return dedupe(breaks)
}

func dedupe(b []float64) []float64 {
	out := b[:0]
	for i, v := range b {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Classify returns the class index of v given ascending breaks (as produced
// by Breaks): class i when v ≤ breaks[i], else len(breaks).
func Classify(v float64, breaks []float64) int {
	for i, b := range breaks {
		if v <= b {
			return i
		}
	}
	return len(breaks)
}

// LevelNames maps a class count to human-readable logical levels matching
// the vocabulary of app descriptions.
func LevelNames(k int) []string {
	switch k {
	case 2:
		return []string{"low", "high"}
	case 3:
		return []string{"low", "medium", "high"}
	case 4:
		return []string{"very_low", "low", "high", "very_high"}
	default:
		names := make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("level_%d", i)
		}
		return names
	}
}
