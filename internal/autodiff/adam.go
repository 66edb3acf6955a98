package autodiff

import "math"

// Adam is the Adam optimiser over a ParamSet, with the paper's default
// learning rate 0.001.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
	m, v []float64 // moment slabs, laid out like the parameters'
}

// NewAdam creates an Adam optimiser with standard hyperparameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// adamConsts are one step's scalars, in the order adam_amd64.s reads them.
type adamConsts struct {
	b1, nb1, b2, nb2 float64 // β1, 1−β1, β2, 1−β2
	bc1, bc2         float64 // the bias corrections 1−β1^t, 1−β2^t
	lr, eps, decay   float64
}

// Step applies one Adam update to the parameters grads touched; the others
// keep their weights and moments. Touched parameters that lie next to each
// other in the slab are one range to adamStep.
func (a *Adam) Step(params *ParamSet, grads *Grads) {
	if grads.layout != params.layout {
		panic("autodiff: Adam.Step with gradients of another parameter set")
	}
	if a.m == nil {
		a.m = make([]float64, len(params.data))
		a.v = make([]float64, len(params.data))
	}
	a.step++
	k := adamConsts{
		b1: a.Beta1, nb1: 1 - a.Beta1, b2: a.Beta2, nb2: 1 - a.Beta2,
		bc1: 1 - math.Pow(a.Beta1, float64(a.step)),
		bc2: 1 - math.Pow(a.Beta2, float64(a.step)),
		lr:  a.LR, eps: a.Eps, decay: a.WeightDecay,
	}
	for i := 0; i < len(grads.touched); {
		if !grads.touched[i] {
			i++
			continue
		}
		j := i + 1
		for j < len(grads.touched) && grads.touched[j] {
			j++
		}
		s := span{params.params[i].lo, params.params[j-1].hi}
		adamStep(s.of(params.data), s.of(grads.data), s.of(a.m), s.of(a.v), &k)
		i = j
	}
}
