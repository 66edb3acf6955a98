package mat

// Shared parallel execution layer for the dense kernels. All heavy
// operations in this package (MulTo, MulTTo, MulBTTo, T and the
// element-wise ops) split their output rows into contiguous blocks and run
// the blocks on a package-level worker pool. The design is deliberately
// work-stealing-free: each output row is owned by exactly one worker, so
// every float is accumulated in exactly the same order as the serial
// kernel and results are bit-identical regardless of the worker count.
//
// The degree of parallelism defaults to runtime.GOMAXPROCS(0) — the bound
// the Go runtime already puts on running goroutines — and SetParallelism
// is the one way to change it. Operations whose FLOP count falls under a
// small threshold run the serial loops instead, so the tiny matrices of
// individual autodiff steps never pay goroutine hand-off overhead.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// serialFLOPCutoff is the approximate FLOP count below which the matrix
// products stay on the serial code path; a product this small finishes in
// a few microseconds, comparable to the cost of dispatching pool blocks.
const serialFLOPCutoff = 128 * 1024

// serialElemCutoff is the element-count analogue for the memory-bound
// element-wise operations (Scale, AddScaled, Apply) and the transpose.
const serialElemCutoff = 64 * 1024

var (
	// parallelism is the configured degree of parallelism: the maximum
	// number of row blocks an operation is split into and the bound on
	// ParallelFor's in-flight goroutines.
	parallelism atomic.Int64

	poolOnce sync.Once
	poolCh   chan blockTask
)

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism fixes the degree of parallelism used by the dense kernels
// and ParallelFor. Values below 1 are clamped to 1 (fully serial).
// Results are bit-identical at every setting.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int64(n))
}

// Parallelism reports the configured degree of parallelism: the last
// SetParallelism, or GOMAXPROCS as it stood when the process started.
func Parallelism() int { return int(parallelism.Load()) }

// blockTask is one contiguous row block handed to a pool worker.
type blockTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// startPool lazily launches the package-level workers. The pool is sized
// once from the machine; Parallelism only controls how many blocks are in
// flight, so reconfiguring it never requires restarting workers.
func startPool() {
	n := runtime.NumCPU()
	poolCh = make(chan blockTask, 8*n)
	for w := 0; w < n; w++ {
		go func() {
			for t := range poolCh {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// parallelRows partitions [0, n) into at most Parallelism() contiguous
// blocks of at least minWork rows each and runs fn on every block, using
// the worker pool for all blocks but the first (which runs on the calling
// goroutine). It returns once every block has completed. fn must only
// write rows inside its own [lo, hi) range; the blocks are disjoint, so no
// two workers ever touch the same output row. With one block the call is a
// plain fn(0, n), making the serial and parallel paths share one body.
func parallelRows(n, minWork int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minWork < 1 {
		minWork = 1
	}
	p := Parallelism()
	if max := n / minWork; p > max {
		p = max
	}
	if p <= 1 {
		if km := kmetrics.Load(); km != nil {
			km.serial.Inc()
		}
		fn(0, n)
		return
	}
	poolOnce.Do(startPool)
	if km := kmetrics.Load(); km != nil {
		km.parallel.Inc()
		km.inflight.Add(float64(p))
		defer km.inflight.Add(float64(-p))
	}
	var wg sync.WaitGroup
	wg.Add(p - 1)
	for b := 1; b < p; b++ {
		poolCh <- blockTask{fn: fn, lo: b * n / p, hi: (b + 1) * n / p, wg: &wg}
	}
	fn(0, n/p)
	wg.Wait()
}

// minBlockRows returns the minimum rows per block so that one block
// amounts to at least cutoff units of work, given a per-row cost.
func minBlockRows(perRow, cutoff int) int {
	if perRow <= 0 {
		return 1
	}
	r := cutoff / perRow
	if r < 1 {
		r = 1
	}
	return r
}

// ParallelFor runs fn(i) for every i in [0, n) with at most Parallelism()
// invocations in flight, replacing the ad-hoc per-item goroutine fan-outs
// of the federated layers. It runs each fn on a fresh goroutine (not a
// pool worker), so fn may itself invoke the parallel dense kernels without
// risking pool starvation. fn must be safe to call concurrently and should
// only write state owned by its own index. ParallelFor returns after all
// invocations complete; with parallelism 1 it degrades to a plain loop.
func ParallelFor(n int, fn func(i int)) {
	p := Parallelism()
	if p <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, p)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
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
