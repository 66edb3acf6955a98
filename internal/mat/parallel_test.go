package mat

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
)

// fillDet fills m with a deterministic, seed-dependent pattern including
// exact zeros (to exercise the zero-skip branches of the kernels).
func fillDet(m *Dense, seed int) {
	for i := range m.data {
		v := math.Sin(float64(i*7+seed)*0.37) * float64((i+seed)%11)
		if (i+seed)%13 == 0 {
			v = 0
		}
		m.data[i] = v
	}
}

// bitEqual reports exact bit-level equality of two matrices.
func bitEqual(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// matmulShapes covers degenerate and non-divisible shapes: row/column
// vectors, sizes with no common factor with any worker count, and blocks
// that do not divide the row count evenly.
var matmulShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 17, 1},
	{1, 5, 9},
	{9, 5, 1},
	{2, 3, 4},
	{7, 13, 11},
	{33, 17, 29},
	{64, 64, 64},
	{65, 31, 127},
	{128, 1, 128},
	{1, 128, 128},
}

// TestParallelMulToBitIdentical drives the row-block kernel through
// parallelRows with minWork 1 (so even tiny shapes split across workers)
// and asserts bit-identical output against the single-block serial run.
func TestParallelMulToBitIdentical(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	for _, sh := range matmulShapes {
		a, b := NewDense(sh.m, sh.k), NewDense(sh.k, sh.n)
		fillDet(a, 1)
		fillDet(b, 2)
		serial := NewDense(sh.m, sh.n)
		mulToBlock(serial, a, b, 0, sh.m)
		for _, procs := range []int{2, 3, 8, 64} {
			SetParallelism(procs)
			got := NewDense(sh.m, sh.n)
			parallelRows(sh.m, 1, func(lo, hi int) { mulToBlock(got, a, b, lo, hi) })
			if !bitEqual(got, serial) {
				t.Fatalf("MulTo %dx%dx%d at parallelism %d differs from serial",
					sh.m, sh.k, sh.n, procs)
			}
		}
	}
}

// TestParallelMulTToBitIdentical checks the row-owned Aᵀ·B kernel, split
// across workers, against the k-outer reference loop in kernels_ref_test.go:
// the two walk memory in different orders but must accumulate every element
// identically.
func TestParallelMulTToBitIdentical(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	for _, sh := range matmulShapes {
		a, b := NewDense(sh.k, sh.m), NewDense(sh.k, sh.n) // dst is m×n
		fillDet(a, 3)
		fillDet(b, 4)
		serial := NewDense(sh.m, sh.n)
		refMulTToSerial(serial, a, b)
		for _, procs := range []int{2, 5, 16} {
			SetParallelism(procs)
			got := NewDense(sh.m, sh.n)
			parallelRows(sh.m, 1, func(lo, hi int) { mulTToBlock(got, a, b, lo, hi) })
			if !bitEqual(got, serial) {
				t.Fatalf("MulTTo %dx%dx%d at parallelism %d differs from serial",
					sh.m, sh.k, sh.n, procs)
			}
		}
	}
}

// TestParallelMulBTToBitIdentical does the same for A·Bᵀ.
func TestParallelMulBTToBitIdentical(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	for _, sh := range matmulShapes {
		a, b := NewDense(sh.m, sh.k), NewDense(sh.n, sh.k) // dst is m×n
		fillDet(a, 5)
		fillDet(b, 6)
		serial := NewDense(sh.m, sh.n)
		mulBTToBlock(serial, a, b, 0, sh.m)
		for _, procs := range []int{2, 7, 32} {
			SetParallelism(procs)
			got := NewDense(sh.m, sh.n)
			parallelRows(sh.m, 1, func(lo, hi int) { mulBTToBlock(got, a, b, lo, hi) })
			if !bitEqual(got, serial) {
				t.Fatalf("MulBTTo %dx%dx%d at parallelism %d differs from serial",
					sh.m, sh.k, sh.n, procs)
			}
		}
	}
}

// TestPublicAPIParallelMatchesSerial exercises the public entry points on
// matrices large enough to cross the FLOP cutoff, comparing a run at
// parallelism 1 with a heavily parallel run bit-for-bit, together with the
// element-wise ops and transpose.
func TestPublicAPIParallelMatchesSerial(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	a, b := NewDense(131, 67), NewDense(67, 93)
	fillDet(a, 7)
	fillDet(b, 8)

	run := func() (mul, mulT, mulBT, tr, ew *Dense) {
		mul = NewDense(131, 93)
		MulTo(mul, a, b)
		mulT = NewDense(67, 67)
		MulTTo(mulT, a, a)
		mulBT = NewDense(131, 131)
		MulBTTo(mulBT, a, a)
		tr = a.T()
		ew = a.Clone()
		ew.Scale(1.25)
		ew.AddScaled(a, -0.5)
		ew.Apply(func(x float64) float64 { return x * x })
		return
	}

	SetParallelism(1)
	s1, s2, s3, s4, s5 := run()
	SetParallelism(16)
	p1, p2, p3, p4, p5 := run()
	for i, pair := range []struct{ s, p *Dense }{
		{s1, p1}, {s2, p2}, {s3, p3}, {s4, p4}, {s5, p5},
	} {
		if !bitEqual(pair.s, pair.p) {
			t.Fatalf("op %d: parallel result differs from serial", i)
		}
	}
}

// TestMulToAliasPanics is the regression test for the aliased-destination
// bug: dst sharing backing memory with an input must panic instead of
// silently corrupting the product.
func TestMulToAliasPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on aliased dst", name)
			}
		}()
		fn()
	}
	sq := NewDense(4, 4)
	fillDet(sq, 9)
	mustPanic("MulTo dst==a", func() { MulTo(sq, sq, NewDense(4, 4)) })
	mustPanic("MulTo dst==b", func() { MulTo(sq, NewDense(4, 4), sq) })
	mustPanic("MulTTo dst==b", func() { MulTTo(sq, NewDense(4, 4), sq) })
	mustPanic("MulBTTo dst==a", func() { MulBTTo(sq, sq, NewDense(4, 4)) })

	// Partial overlap through a shared backing array must also be caught.
	backing := make([]float64, 32)
	dst := NewDenseData(4, 4, backing[:16])
	a := NewDenseData(4, 4, backing[8:24])
	mustPanic("MulTo partial overlap", func() { MulTo(dst, a, NewDense(4, 4)) })

	// Distinct halves of one allocation do not overlap and must be fine.
	ok := NewDenseData(4, 4, backing[:16])
	c := NewDenseData(4, 4, backing[16:])
	MulTo(ok, c, NewDense(4, 4))

	// Inputs may alias each other (dst is what matters): A·A is legal.
	out := NewDense(4, 4)
	MulTo(out, sq, sq)
}

// TestPoolStress hammers the shared pool from many goroutines at once —
// the usage pattern of federated clients training concurrently. Each
// t.Parallel() subtest issues products through both parallelRows and the
// public MulTo entry point and checks them against references computed up
// front. The parent pins the knob via t.Cleanup (not defer) so it is only
// restored after every parallel subtest has finished.
func TestPoolStress(t *testing.T) {
	old := Parallelism()
	t.Cleanup(func() { SetParallelism(old) })
	SetParallelism(8)
	a, b := NewDense(96, 48), NewDense(48, 64)
	fillDet(a, 10)
	fillDet(b, 11)
	want := NewDense(96, 64)
	mulToBlock(want, a, b, 0, 96)
	// Big enough to cross the FLOP cutoff through the public API.
	bigA, bigB := NewDense(80, 80), NewDense(80, 80)
	fillDet(bigA, 12)
	fillDet(bigB, 13)
	bigWant := NewDense(80, 80)
	mulToBlock(bigWant, bigA, bigB, 0, 80)

	for g := 0; g < 8; g++ {
		g := g
		t.Run(fmt.Sprintf("worker-%d", g), func(t *testing.T) {
			t.Parallel()
			got := NewDense(96, 64)
			bigGot := NewDense(80, 80)
			for it := 0; it < 25; it++ {
				parallelRows(96, 1, func(lo, hi int) { mulToBlock(got, a, b, lo, hi) })
				if !bitEqual(got, want) {
					t.Fatalf("iteration %d: corrupted forced-parallel product", it)
				}
				MulTo(bigGot, bigA, bigB)
				if !bitEqual(bigGot, bigWant) {
					t.Fatalf("iteration %d: corrupted MulTo product", it)
				}
			}
		})
	}
}

// TestParallelForBoundsConcurrency checks that ParallelFor visits every
// index exactly once and never exceeds the configured parallelism.
func TestParallelForBoundsConcurrency(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(3)
	const n = 50
	visited := make([]int, n)
	var mu sync.Mutex
	inFlight, peak := 0, 0
	ParallelFor(n, func(i int) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
		visited[i]++
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	if peak > 3 {
		t.Fatalf("peak concurrency %d exceeds parallelism 3", peak)
	}
	// Serial degradation.
	SetParallelism(1)
	order := make([]int, 0, 5)
	ParallelFor(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial ParallelFor out of order: %v", order)
		}
	}
}

// TestSetParallelismClamps checks the knob clamps to a sane floor.
func TestSetParallelismClamps(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(-4)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d want 1", Parallelism())
	}
	SetParallelism(6)
	if Parallelism() != 6 {
		t.Fatalf("Parallelism() = %d want 6", Parallelism())
	}
}

// TestParallelismDefaultFollowsGOMAXPROCS pins the one default: a fresh
// process starts at GOMAXPROCS and reads no variable of its own. The default
// is taken at init, so the check re-executes the test binary with GOMAXPROCS
// and the retired FEXIOT_PROCS both set and has the child print what it got.
func TestParallelismDefaultFollowsGOMAXPROCS(t *testing.T) {
	if os.Getenv("GO_WANT_HELPER_PROCESS") == "1" {
		fmt.Printf("parallelism=%d\n", Parallelism())
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestParallelismDefaultFollowsGOMAXPROCS$")
	cmd.Env = append(os.Environ(), "GO_WANT_HELPER_PROCESS=1", "GOMAXPROCS=1", "FEXIOT_PROCS=7")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("re-exec: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "parallelism=1\n") {
		t.Fatalf("child with GOMAXPROCS=1 FEXIOT_PROCS=7 reported:\n%s\nwant parallelism=1", out)
	}
}
