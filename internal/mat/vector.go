package mat

import (
	"fmt"
	"math"
	"sort"
)

// Vector helpers operate on plain []float64 slices; a heavier Vector type is
// unnecessary for the workloads in this repository.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy performs dst += s*src element-wise.
func Axpy(dst, src []float64, s float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: Axpy lengths %d and %d", len(dst), len(src)))
	}
	off, coef := [1]int{}, [1]float64{s}
	rowTerms(dst, src, off[:], coef[:])
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dist2 returns the Euclidean distance between a and b.
func Dist2(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dist2 lengths %d and %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between a and b, or 0 if
// either vector is zero.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Median returns the median of v without modifying it.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the q-th quantile (0≤q≤1) of v using linear interpolation,
// matching the convention used by box plots (Fig. 5 in the paper).
func Quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// ArgMax returns the index of the largest element, or -1 for an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	idx := 0
	mx := v[0]
	for i, x := range v {
		if x > mx {
			mx, idx = x, i
		}
	}
	return idx
}

// Softmax writes the softmax of v into a new slice.
func Softmax(v []float64) []float64 {
	out := make([]float64, len(v))
	if len(v) == 0 {
		return out
	}
	mx := v[ArgMax(v)]
	var z float64
	for i, x := range v {
		e := math.Exp(x - mx)
		out[i] = e
		z += e
	}
	for i := range out {
		out[i] /= z
	}
	return out
}

// SoftmaxTo writes the softmax of src into dst (same length), using the
// exact same max-shifted exponentiation as Softmax so results are
// bit-identical; it exists so hot loops can reuse a caller-owned buffer.
// dst and src may alias.
func SoftmaxTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mat: SoftmaxTo lengths %d and %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return
	}
	mx := src[ArgMax(src)]
	var z float64
	for i, x := range src {
		e := math.Exp(x - mx)
		dst[i] = e
		z += e
	}
	for i := range dst {
		dst[i] /= z
	}
}

// Sigmoid returns the logistic function value for x.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// CheckFinite returns the index of the first NaN or ±Inf element of v, or
// -1 when every element is finite. The scan uses the identity x−x ≠ 0 ⇔ x
// is non-finite (NaN−NaN = NaN, Inf−Inf = NaN), which keeps the loop free
// of math.IsNaN/IsInf calls and branch-predictable on the clean path — it
// runs on every remote update the federation server accepts.
func CheckFinite(v []float64) int {
	for i, x := range v {
		if x-x != 0 {
			return i
		}
	}
	return -1
}

// AllFinite reports whether every element of v is finite.
func AllFinite(v []float64) bool { return CheckFinite(v) < 0 }

// Clamp restricts x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
