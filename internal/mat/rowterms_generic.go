//go:build !amd64 || purego

package mat

// rowTerms performs dst[j] += coef[t]·b[offs[t]+j] over len(dst) columns
// for t ascending — the one inner loop under MulTo, MulTTo, SpMMTo,
// AddScaled and Axpy. This loop is the portable form: every GOARCH without
// an assembly routine, and amd64 under the purego build tag (CI's proof that
// it reproduces the pinned numbers). rowterms_amd64.s holds dst in registers
// across the terms; each element still receives one multiply and one add,
// rounded separately, per term in the same order, so the two are
// bit-identical (DESIGN §4.5). The caller guarantees that b holds every
// term's len(dst) elements; dst may be those elements only when there is one
// term.
func rowTerms(dst, b []float64, offs []int, coef []float64) {
	for t, o := range offs {
		c := coef[t]
		for j, v := range b[o:][:len(dst)] {
			dst[j] += c * v
		}
	}
}
