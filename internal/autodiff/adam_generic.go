//go:build !amd64 || purego

package autodiff

import "math"

// adamStep applies one Adam update to the weights w from the gradients g,
// updating the moments m and v; all four have one length. Per value, in
// this order: the weight-decay term joins the gradient (decay > 0 only),
// m = β1·m + (1−β1)·g, v = β2·v + ((1−β2)·g)·g, and
// w −= (lr·(m/bc1)) / (√(v/bc2) + ε). adam_amd64.s computes the same
// values two at a time, operation for operation (DESIGN §4.13).
func adamStep(w, g, m, v []float64, k *adamConsts) {
	for i := range w {
		gi := g[i]
		if k.decay > 0 {
			gi += k.decay * w[i]
		}
		m[i] = k.b1*m[i] + k.nb1*gi
		v[i] = k.b2*v[i] + k.nb2*gi*gi
		mhat := m[i] / k.bc1
		vhat := v[i] / k.bc2
		w[i] -= k.lr * mhat / (math.Sqrt(vhat) + k.eps)
	}
}
