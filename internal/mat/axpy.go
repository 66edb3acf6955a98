package mat

// axpyCutover is the row length from which a row update calls the axpy
// kernel; shorter rows stay on an inline loop, where the call into assembly
// costs more than the vector lanes save (measured: DESIGN §4.5).
const axpyCutover = 8

// rowUpdate performs dst[j] += s*src[j] over len(src) elements — the one
// inner loop under MulTo, MulTTo, SpMMTo, AddScaled and Axpy. Each element
// is one multiply then one add, rounded separately, on either path, so the
// two are bit-identical (DESIGN §4.5). dst and src may be the same slice but
// must not otherwise overlap.
func rowUpdate(dst, src []float64, s float64) {
	dst = dst[:len(src)]
	if len(src) >= axpyCutover {
		axpy(dst, src, s)
		return
	}
	for j, v := range src {
		dst[j] += s * v
	}
}
