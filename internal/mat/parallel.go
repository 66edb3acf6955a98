package mat

// The package's one concurrency bound. The dense kernels run on the calling
// goroutine and never split a product: nothing in the module multiplies a
// matrix big enough for a split to pay (EXPERIMENTS.md "Row-block kernel
// parallelism (retired)"). Parallelism lives a level up, across clients,
// graphs and requests: ParallelFor bounds the federated and evaluation
// fan-outs, and the serving engine sizes its worker pool from the same bound.
//
// The bound defaults to runtime.GOMAXPROCS(0) — the limit the Go runtime
// already puts on running goroutines — and SetParallelism is the one way
// to change it.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// parallelism bounds ParallelFor's in-flight goroutines.
var parallelism atomic.Int64

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism fixes the bound ParallelFor and the serving engine's
// default worker count follow. Values below 1 are clamped to 1 (fully
// serial). Results are bit-identical at every setting.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int64(n))
}

// Parallelism reports the configured degree of parallelism: the last
// SetParallelism, or GOMAXPROCS as it stood when the process started.
func Parallelism() int { return int(parallelism.Load()) }

// ParallelFor runs fn(i) for every i in [0, n) with at most Parallelism()
// invocations in flight, replacing the ad-hoc per-item goroutine fan-outs
// of the federated layers. fn must be safe to call concurrently and should
// only write state owned by its own index. ParallelFor returns after all
// invocations complete; with parallelism 1 it degrades to a plain loop.
//
// A panic in fn reaches the caller as it would from that loop: no index is
// started after one has panicked, the started ones are waited for, and the
// value re-panicked on the calling goroutine is the one of the lowest
// panicking index.
func ParallelFor(n int, fn func(i int)) {
	p := Parallelism()
	if p <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, p)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards first and value
		panicked atomic.Bool
		first    = n // the lowest panicking index so far
		value    any
	)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		// A panicking fn sets the flag before it frees its slot.
		if panicked.Load() {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					if i < first {
						first, value = i, v
					}
					mu.Unlock()
					panicked.Store(true)
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if panicked.Load() {
		panic(value)
	}
}

// sharesBacking reports whether two float64 slices overlap in memory. The
// check is constant-time pointer arithmetic — cheap enough to run on every
// product — and catches both identical matrices and partial views carved
// from one backing array.
func sharesBacking(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	const sz = unsafe.Sizeof(float64(0))
	x0 := uintptr(unsafe.Pointer(&x[0]))
	x1 := x0 + uintptr(len(x))*sz
	y0 := uintptr(unsafe.Pointer(&y[0]))
	y1 := y0 + uintptr(len(y))*sz
	return x0 < y1 && y0 < x1
}

// checkNoAlias panics when dst shares backing memory with either input.
// The product kernels stream into dst while still reading the inputs, so
// aliasing would silently corrupt the result.
func checkNoAlias(op string, dst *Dense, inputs ...*Dense) {
	for _, in := range inputs {
		if sharesBacking(dst.data, in.data) {
			panic("mat: " + op + ": dst shares backing memory with an input; allocate a distinct destination")
		}
	}
}
