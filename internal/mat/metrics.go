package mat

import (
	"sync/atomic"

	"fexiot/internal/obs"
)

// kernelMetrics are the package-level observability handles of the dense
// kernels. The whole struct sits behind one atomic pointer: the disabled
// state is a nil pointer, so the per-operation cost of instrumentation when
// no registry is installed is a single atomic load and branch — unmeasurable
// next to even the smallest matrix product (see BenchmarkKernels).
type kernelMetrics struct {
	flops    *obs.Counter // fexiot_mat_flops_total
	dispatch *obs.Counter // fexiot_mat_dispatch_total
}

var kmetrics atomic.Pointer[kernelMetrics]

// InstrumentKernels installs observability for the dense kernels into r:
// FLOPs executed by the matrix products and the number of kernel calls. A
// nil registry uninstalls the instrumentation, restoring the zero-overhead
// fast path. The handles are process-global; installing a second registry
// replaces the first.
func InstrumentKernels(r *obs.Registry) {
	InstrumentArenas(r)
	if r == nil {
		kmetrics.Store(nil)
		return
	}
	kmetrics.Store(&kernelMetrics{
		flops: r.Counter("fexiot_mat_flops_total",
			"floating-point operations executed by the matrix product kernels"),
		dispatch: r.Counter("fexiot_mat_dispatch_total",
			"dense-kernel calls: products, transposes and element-wise ops"),
	})
}

// countFLOPs tallies one product's floating-point operations when
// instrumentation is installed.
func countFLOPs(n int) {
	if km := kmetrics.Load(); km != nil {
		km.flops.Add(int64(n))
	}
}

// countDispatch tallies one dense-kernel call when instrumentation is
// installed.
func countDispatch() {
	if km := kmetrics.Load(); km != nil {
		km.dispatch.Inc()
	}
}

// arenaMetrics are the process-global observability handles of every
// Arena, following the same nil-pointer-disables pattern as kernelMetrics:
// arenas are per-tape/per-workspace but their traffic is one logical
// allocator subsystem, so the counters aggregate across all of them.
type arenaMetrics struct {
	leases      *obs.Counter // fexiot_mat_arena_leases_total
	hits        *obs.Counter // fexiot_mat_arena_hits_total
	misses      *obs.Counter // fexiot_mat_arena_misses_total
	releases    *obs.Counter // fexiot_mat_arena_releases_total
	trims       *obs.Counter // fexiot_mat_arena_trims_total
	bytesLive   *obs.Gauge   // fexiot_mat_arena_bytes_live
	bytesPooled *obs.Gauge   // fexiot_mat_arena_bytes_pooled
}

var ametrics atomic.Pointer[arenaMetrics]

// InstrumentArenas installs the fexiot_mat_arena_* metric family into r:
// lease traffic split into pool hits and fresh-make misses, release and
// trim counts, and the bytes currently leased out vs retained in free
// lists (summed over every live arena). A nil registry uninstalls the
// instrumentation. InstrumentKernels calls this automatically, so any
// binary that instruments the kernels also exports the arena family.
func InstrumentArenas(r *obs.Registry) {
	if r == nil {
		ametrics.Store(nil)
		return
	}
	ametrics.Store(&arenaMetrics{
		leases: r.Counter("fexiot_mat_arena_leases_total",
			"buffer leases served by the matrix arenas"),
		hits: r.Counter("fexiot_mat_arena_hits_total",
			"arena leases satisfied from a free list"),
		misses: r.Counter("fexiot_mat_arena_misses_total",
			"arena leases that fell back to a fresh allocation"),
		releases: r.Counter("fexiot_mat_arena_releases_total",
			"buffers handed back to the matrix arenas"),
		trims: r.Counter("fexiot_mat_arena_trims_total",
			"epoch trims run across the matrix arenas"),
		bytesLive: r.Gauge("fexiot_mat_arena_bytes_live",
			"bytes currently leased out of the matrix arenas"),
		bytesPooled: r.Gauge("fexiot_mat_arena_bytes_pooled",
			"bytes currently retained in arena free lists"),
	})
}
