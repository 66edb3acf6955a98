package mat

import (
	"math/rand"
	"testing"
)

// BenchmarkKernels is the in-package ledger row for the products a
// federated client's round spends its time in (EXPERIMENTS.md "Training
// kernels"), at the shapes of one 18-node graph through GIN at the paper's
// dimensions: m×k×n = 18×332×64 (layer 0) and 18×64×64 (every later layer),
// the latter also with a half-zero left operand, as a post-ReLU activation
// is. mul is A·B (forward), mulT Aᵀ·dOut (weight gradient), mulBT dOut·Bᵀ
// (input gradient), spmm an 18-node adjacency of degree ≈ 3 plus self loops
// over an 18×k activation. The GFLOP/s column counts the nominal 2·m·k·n
// (2·nnz·k for spmm), so a zero-skip shows as a higher rate. This file uses
// only API that exists at 6ba3676, so the same file produces the parent rows.
func BenchmarkKernels(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
		relu    bool
	}{
		{"18x332x64", 18, 332, 64, false},
		{"18x64x64", 18, 64, 64, false},
		{"18x64x64_relu", 18, 64, 64, true},
	}
	fill := func(r *rand.Rand, m *Dense, relu bool) *Dense {
		d := m.Data()
		for i := range d {
			d[i] = r.NormFloat64()
			if relu && d[i] < 0 {
				d[i] = 0
			}
		}
		return m
	}
	run := func(b *testing.B, flops int, op func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	}
	for _, sh := range shapes {
		r := rand.New(rand.NewSource(3))
		m, k, n := sh.m, sh.k, sh.n
		flops := 2 * m * k * n
		b.Run("mul/"+sh.name, func(b *testing.B) {
			a, w, dst := fill(r, NewDense(m, k), sh.relu), fill(r, NewDense(k, n), false), NewDense(m, n)
			run(b, flops, func() { MulTo(dst, a, w) })
		})
		b.Run("mulT/"+sh.name, func(b *testing.B) {
			a, g, dst := fill(r, NewDense(m, k), sh.relu), fill(r, NewDense(m, n), false), NewDense(k, n)
			run(b, flops, func() { MulTTo(dst, a, g) })
		})
		b.Run("mulBT/"+sh.name, func(b *testing.B) {
			g, w, dst := fill(r, NewDense(m, n), sh.relu), fill(r, NewDense(k, n), false), NewDense(m, k)
			run(b, flops, func() { MulBTTo(dst, g, w) })
		})
		b.Run("spmm/"+sh.name, func(b *testing.B) {
			var is, js []int
			var vs []float64
			for i := 0; i < m; i++ {
				for _, j := range []int{i, (i + 1) % m, (i + 5) % m, (i + 11) % m} {
					is, js, vs = append(is, i), append(js, j), append(vs, 1+r.Float64())
				}
			}
			s := NewCSR(m, m, is, js, vs)
			h, dst := fill(r, NewDense(m, k), sh.relu), NewDense(m, k)
			run(b, 2*s.NNZ()*k, func() { SpMMTo(dst, s, h) })
		})
	}
}
