package mat

import (
	"sync"
	"sync/atomic"
)

// Arena is a size-classed free-list allocator for []float64 backing arrays.
// It exists to take the Go allocator and garbage collector off the training
// and serving hot paths: every op of a define-by-run autodiff pass needs a
// fresh value and gradient buffer, and without reuse each forward/backward
// pass churns megabytes of short-lived garbage (the problem the PyTorch/DGL
// caching-allocator solves in the stack this repository replaces).
//
// Buffers are bucketed by exact length — the tape re-runs the same model
// shapes step after step, so exact classes hit almost always and never
// overhang. Lease returns memory zeroed to preserve NewDense semantics
// bit-identically; Release recycles a buffer into its class up to a bounded
// per-class cap (beyond it the buffer is dropped for the GC to take).
//
// An Arena is safe for concurrent use, but the intended pattern is one
// arena per Tape/workspace, touched by one goroutine at a time — the mutex
// is then never contended.
//
// Ownership discipline (see DESIGN.md §4.13): a buffer is either live
// (exactly one holder may read and write it) or free (owned by the arena).
// Releasing a buffer twice, or reading it after Release, is a bug; build
// with -tags=debugarena to fill freed buffers with NaN so such
// use-after-recycle reads poison results loudly instead of corrupting them
// silently.
type Arena struct {
	mu      sync.Mutex
	classes map[int]*arenaClass

	// maxPerClass bounds each free list (arenaCap; tests lower it).
	maxPerClass int

	bytesPooled int64 // bytes currently held in free lists
	bytesLive   int64 // bytes currently leased out
	leases      uint64
	hits        uint64
	misses      uint64
	releases    uint64
	trims       uint64
}

// arenaClass is one exact-size bucket.
type arenaClass struct {
	bufs [][]float64
	// used marks the class as touched (leased from) since the last Trim;
	// Trim drops the free buffers of untouched classes, so shapes that
	// stopped recurring (an old graph size, a resized model) are given back
	// to the GC after one idle epoch.
	used bool
}

// arenaCap is the per-class free-list bound. A training step holds every
// drawn graph's pass on one tape, so a small shape — a pooled row, a
// readout — has a value and a gradient in flight per graph and layer, a
// few hundred at once; the cap retains every steady-state buffer while
// bounding worst-case retention for one-off shapes.
const arenaCap = 512

// arenaOff is the process-wide arena switch: when set every Lease falls
// back to a plain make and Release drops the buffer, restoring the exact
// allocation behaviour of the pre-arena runtime. SetArenaEnabled is the
// one way to flip it; pooling is on unless it has been called.
var arenaOff atomic.Bool

// SetArenaEnabled toggles buffer pooling process-wide. Disabling it does
// not invalidate live leases; it only makes future leases allocate fresh
// memory and future releases drop their buffers.
func SetArenaEnabled(on bool) { arenaOff.Store(!on) }

// NewArena creates an empty arena whose size classes each keep at most
// arenaCap free buffers.
func NewArena() *Arena {
	return &Arena{classes: map[int]*arenaClass{}, maxPerClass: arenaCap}
}

// Lease returns a zeroed []float64 of length n, reusing a recycled buffer
// of the exact same length when one is free. The caller owns the buffer
// until it hands it back via Release (or keeps it forever — leaking to the
// GC is always safe).
func (a *Arena) Lease(n int) []float64 {
	buf, recycled := a.lease(n)
	if recycled {
		// Zero on lease, not on release: NewDense semantics are preserved
		// bit-identically, and the debugarena NaN poison stays visible for
		// the whole time a freed buffer sits in the pool.
		clear(buf)
	}
	return buf
}

// LeaseUninit is Lease without the clear, for a caller that assigns every
// element before reading any (a product's destination, a copy's target): a
// recycled buffer comes back holding whatever its last holder left — NaN
// under -tags=debugarena, which is what proves the "assigns every element"
// claim in the tests instead of a clear hiding a missed one.
func (a *Arena) LeaseUninit(n int) []float64 {
	buf, _ := a.lease(n)
	return buf
}

// lease pops a buffer of length n from its class, or makes one; recycled
// reports whether the contents are a previous holder's.
func (a *Arena) lease(n int) (buf []float64, recycled bool) {
	if n <= 0 {
		return nil, false
	}
	if arenaOff.Load() {
		a.count(&a.leases, &a.misses, n)
		return make([]float64, n), false
	}
	a.mu.Lock()
	a.leases++
	cl := a.classes[n]
	if cl != nil {
		cl.used = true
	}
	if cl == nil || len(cl.bufs) == 0 {
		a.misses++
		a.bytesLive += int64(n) * 8
		a.mu.Unlock()
		if am := ametrics.Load(); am != nil {
			am.leases.Inc()
			am.misses.Inc()
			am.bytesLive.Add(float64(n) * 8)
		}
		return make([]float64, n), false
	}
	a.hits++
	buf = cl.bufs[len(cl.bufs)-1]
	cl.bufs = cl.bufs[:len(cl.bufs)-1]
	a.bytesPooled -= int64(n) * 8
	a.bytesLive += int64(n) * 8
	a.mu.Unlock()
	if am := ametrics.Load(); am != nil {
		am.leases.Inc()
		am.hits.Inc()
		am.bytesLive.Add(float64(n) * 8)
		am.bytesPooled.Add(float64(n) * -8)
	}
	return buf, true
}

// count records a disabled-path lease without touching the free lists.
func (a *Arena) count(leases, misses *uint64, n int) {
	a.mu.Lock()
	*leases++
	*misses++
	a.mu.Unlock()
	if am := ametrics.Load(); am != nil {
		am.leases.Inc()
		am.misses.Inc()
	}
}

// Release recycles a leased buffer into its exact-size class. Buffers
// beyond the per-class cap — and every buffer while the arena is disabled —
// are dropped for the GC. The caller must not touch buf afterwards; with
// -tags=debugarena the buffer is immediately filled with NaN so stale reads
// are caught by the first computation that consumes them.
func (a *Arena) Release(buf []float64) {
	n := len(buf)
	if n == 0 {
		return
	}
	poison(buf)
	if am := ametrics.Load(); am != nil {
		am.releases.Inc()
		am.bytesLive.Add(float64(n) * -8)
	}
	if arenaOff.Load() {
		a.mu.Lock()
		a.releases++
		a.bytesLive -= int64(n) * 8
		a.mu.Unlock()
		return
	}
	a.mu.Lock()
	a.releases++
	a.bytesLive -= int64(n) * 8
	cl := a.classes[n]
	if cl == nil {
		cl = &arenaClass{used: true}
		a.classes[n] = cl
	}
	if len(cl.bufs) >= a.maxPerClass {
		a.mu.Unlock()
		return
	}
	cl.bufs = append(cl.bufs, buf[:n:n])
	a.bytesPooled += int64(n) * 8
	a.mu.Unlock()
	if am := ametrics.Load(); am != nil {
		am.bytesPooled.Add(float64(n) * 8)
	}
}

// Trim is the epoch hook: it drops the free buffers of every class that has
// not been leased from since the previous Trim, then starts a new epoch.
// Callers invoke it at coarse boundaries (the tape does so automatically
// every arenaTrimNodes recycled nodes), so shapes that stopped recurring are
// returned to the GC within two epochs while active shapes are never
// evicted.
func (a *Arena) Trim() {
	a.mu.Lock()
	a.trims++
	for n, cl := range a.classes {
		if cl.used {
			cl.used = false
			continue
		}
		a.bytesPooled -= int64(n*len(cl.bufs)) * 8
		if am := ametrics.Load(); am != nil {
			am.bytesPooled.Add(float64(n*len(cl.bufs)) * -8)
		}
		delete(a.classes, n)
	}
	a.mu.Unlock()
	if am := ametrics.Load(); am != nil {
		am.trims.Inc()
	}
}

// ArenaStats is a point-in-time snapshot of an arena's counters.
type ArenaStats struct {
	Leases      uint64
	Hits        uint64
	Misses      uint64
	Releases    uint64
	Trims       uint64
	BytesLive   int64 // bytes currently leased out
	BytesPooled int64 // bytes currently retained in free lists
	Classes     int   // live size classes
}

// Stats reports the arena's counters.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{
		Leases:      a.leases,
		Hits:        a.hits,
		Misses:      a.misses,
		Releases:    a.releases,
		Trims:       a.trims,
		BytesLive:   a.bytesLive,
		BytesPooled: a.bytesPooled,
		Classes:     len(a.classes),
	}
}

// Remake repoints m at a new shape and backing slice (len(data) must equal
// r*c). It lets a long-lived Dense header be retargeted at arena-leased
// memory without allocating a new header — the tape's node recycling relies
// on it. The previous backing slice is untouched (the caller releases it
// separately if it was leased).
func (m *Dense) Remake(r, c int, data []float64) {
	if len(data) != r*c {
		panic("mat: Remake data length does not match dimensions")
	}
	m.rows, m.cols, m.data = r, c, data
}
