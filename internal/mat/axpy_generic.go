//go:build !amd64 || purego

package mat

// axpy is the portable vector row update: every GOARCH without an assembly
// kernel, and amd64 under the purego build tag (CI's proof that the
// fallback reproduces the pinned numbers; DESIGN §4.5).
func axpy(dst, src []float64, s float64) {
	for j, v := range src {
		dst[j] += s * v
	}
}
