//go:build amd64 && !purego

package mat

// rowTerms is the row routine in rowterms_amd64.s; rowterms_generic.go
// documents the contract.
//
//go:noescape
func rowTerms(dst, b []float64, offs []int, coef []float64)

// rowMax is the column-wise maximum routine in rowmax_amd64.s;
// rowterms_generic.go documents the contract.
//
//go:noescape
func rowMax(best, b []float64)
