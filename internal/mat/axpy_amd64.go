//go:build amd64 && !purego

package mat

// axpy is the vector row update in axpy_amd64.s. It reads and writes
// exactly len(src) elements; the caller guarantees len(dst) >= len(src).
//
//go:noescape
func axpy(dst, src []float64, s float64)
