package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no stable solution.
var ErrSingular = errors.New("mat: matrix is singular or ill-conditioned")

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite A. It returns ErrSingular when A is not
// (numerically) positive definite.
func Cholesky(a *Dense) (*Dense, error) {
	n := a.rows
	if a.cols != n {
		panic(fmt.Sprintf("mat: Cholesky of %dx%d", a.rows, a.cols))
	}
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 1e-14 {
					return nil, ErrSingular
				}
				l.Set(i, j, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// CholeskySolve solves A·x = b given the Cholesky factor L of A.
func CholeskySolve(l *Dense, b []float64) []float64 {
	n := l.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: CholeskySolve rhs length %d want %d", len(b), n))
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveSPD solves A·x = b for symmetric positive-definite A.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholeskySolve(l, b), nil
}

// WeightedLeastSquares solves min_w Σ_i c_i (y_i − x_i·w)² with an optional
// ridge term to keep the normal equations well conditioned. X is n×d, y and
// weights have length n. This is the solver behind kernel SHAP (Eq. 6 in the
// paper), where the weights are the Shapley kernel coefficients.
func WeightedLeastSquares(x *Dense, y, weights []float64, ridge float64) ([]float64, error) {
	n, d := x.Dims()
	if len(y) != n || len(weights) != n {
		panic(fmt.Sprintf("mat: WLS %d rows, %d targets, %d weights", n, len(y), len(weights)))
	}
	// Normal equations: (XᵀCX + λI) w = XᵀCy.
	ata := NewDense(d, d)
	atb := make([]float64, d)
	for i := 0; i < n; i++ {
		c := weights[i]
		if c == 0 {
			continue
		}
		xi := x.Row(i)
		for a := 0; a < d; a++ {
			va := c * xi[a]
			if va == 0 {
				continue
			}
			row := ata.Row(a)
			for b := 0; b < d; b++ {
				row[b] += va * xi[b]
			}
			atb[a] += va * y[i]
		}
	}
	for a := 0; a < d; a++ {
		ata.Add(a, a, ridge)
	}
	w, err := SolveSPD(ata, atb)
	if err != nil {
		// Retry with a heavier ridge before giving up: the SHAP sampling can
		// produce rank-deficient design matrices for tiny coalitions.
		for a := 0; a < d; a++ {
			ata.Add(a, a, 1e-6+ridge*10)
		}
		w, err = SolveSPD(ata, atb)
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

// PCA projects the rows of x (n×d, not centered) onto its top-k principal
// components using orthogonal power iteration. It returns the n×k projected
// coordinates. Used to initialise t-SNE (Fig. 6).
func PCA(x *Dense, k int, iters int) *Dense {
	n, d := x.Dims()
	if k > d {
		k = d
	}
	// Center.
	centered := x.Clone()
	meanVec := make([]float64, d)
	for i := 0; i < n; i++ {
		Axpy(meanVec, x.Row(i), 1/float64(n))
	}
	for i := 0; i < n; i++ {
		Axpy(centered.Row(i), meanVec, -1)
	}
	// Covariance (d×d).
	cov := NewDense(d, d)
	MulTTo(cov, centered, centered)
	cov.Scale(1 / float64(n))
	// Orthogonal power iteration for top-k eigenvectors.
	comps := NewDense(d, k)
	for j := 0; j < k; j++ {
		for i := 0; i < d; i++ {
			// Deterministic pseudo-random start vector.
			comps.Set(i, j, math.Sin(float64(i*31+j*7+1)))
		}
	}
	tmp := NewDense(d, k)
	for it := 0; it < iters; it++ {
		MulTo(tmp, cov, comps)
		comps, tmp = tmp, comps
		gramSchmidt(comps)
	}
	out := NewDense(n, k)
	MulTo(out, centered, comps)
	return out
}

// gramSchmidt orthonormalises the columns of m in place.
func gramSchmidt(m *Dense) {
	r, c := m.Dims()
	for j := 0; j < c; j++ {
		for p := 0; p < j; p++ {
			var dot float64
			for i := 0; i < r; i++ {
				dot += m.At(i, j) * m.At(i, p)
			}
			for i := 0; i < r; i++ {
				m.Add(i, j, -dot*m.At(i, p))
			}
		}
		var norm float64
		for i := 0; i < r; i++ {
			norm += m.At(i, j) * m.At(i, j)
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			norm = 1
		}
		for i := 0; i < r; i++ {
			m.Set(i, j, m.At(i, j)/norm)
		}
	}
}
