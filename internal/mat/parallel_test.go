package mat

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestKernelsAllocateNothing pins that no kernel allocates, whatever the
// parallelism: products at 64×64×64 and element-wise ops over 401×331
// elements, sizes a kernel that split its rows would split.
func TestKernelsAllocateNothing(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(4)
	a, b, dst := NewDense(64, 64), NewDense(64, 64), NewDense(64, 64)
	fillDet(a, 1)
	fillDet(b, 2)
	m, src := NewDense(401, 331), NewDense(401, 331)
	fillDet(m, 3)
	fillDet(src, 4)
	for name, op := range map[string]func(){
		"MulTo":     func() { MulTo(dst, a, b) },
		"MulTTo":    func() { MulTTo(dst, a, b) },
		"MulBTTo":   func() { MulBTTo(dst, a, b) },
		"Scale":     func() { m.Scale(1) },
		"AddScaled": func() { m.AddScaled(src, 0.5) },
		"Apply":     func() { m.Apply(math.Abs) },
		"ReLUTo":    func() { ReLUTo(m, src) },
	} {
		if allocs := testing.AllocsPerRun(10, op); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, allocs)
		}
	}
}

// TestParallelForPropagatesPanic: a panic in fn reaches ParallelFor's caller
// as it would from the serial loop, with the value of the lowest panicking
// index, after every started index has returned and before the rest of the
// range is started.
func TestParallelForPropagatesPanic(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(3)
	const n = 100
	var started, finished atomic.Int64
	defer func() {
		if v := recover(); v != "index 5" {
			t.Fatalf("recovered %v, want the panic of index 5", v)
		}
		if s, f := started.Load(), finished.Load(); s != f || s >= n {
			t.Fatalf("%d indices started, %d returned; want all started returned, fewer than %d", s, f, n)
		}
	}()
	ParallelFor(n, func(i int) {
		started.Add(1)
		defer finished.Add(1)
		if i == 5 || i == 7 {
			panic(fmt.Sprintf("index %d", i))
		}
		time.Sleep(time.Millisecond)
	})
	t.Fatal("ParallelFor returned normally")
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
