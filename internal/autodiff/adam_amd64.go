//go:build amd64 && !purego

package autodiff

// adamStep is the Adam update routine in adam_amd64.s; adam_generic.go
// documents the contract.
//
//go:noescape
func adamStep(w, g, m, v []float64, k *adamConsts)
