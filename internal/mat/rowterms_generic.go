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

// rowMax sets best[j] to b[r·len(best)+j] wherever that is strictly
// greater, for each row r of b ascending — the loop under MaxRowsTo. A NaN
// in b never wins and a NaN in best never loses; ties and ±0 keep best.
// rowmax_amd64.s computes the same thing with MAXPD, whose operand rule is
// this comparison (DESIGN §4.5). The caller guarantees that len(b) is a
// multiple of len(best) and that best does not overlap b.
func rowMax(best, b []float64) {
	for o := 0; o < len(b); o += len(best) {
		for j, v := range b[o:][:len(best)] {
			if v > best[j] {
				best[j] = v
			}
		}
	}
}
