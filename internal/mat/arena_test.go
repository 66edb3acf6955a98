package mat

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestArenaLeaseZeroed pins the core NewDense-equivalence contract: every
// lease — fresh or recycled, even after the buffer was dirtied — observes
// all-zero memory.
func TestArenaLeaseZeroed(t *testing.T) {
	a := NewArena()
	for round := 0; round < 3; round++ {
		buf := a.Lease(37)
		if len(buf) != 37 {
			t.Fatalf("lease length = %d, want 37", len(buf))
		}
		for i, v := range buf {
			if v != 0 {
				t.Fatalf("round %d: leased buf[%d] = %v, want 0", round, i, v)
			}
		}
		for i := range buf {
			buf[i] = float64(i) + 1
		}
		a.Release(buf)
	}
	st := a.Stats()
	if st.Leases != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 leases / 2 hits / 1 miss", st)
	}
}

// TestArenaDistinctBacking pins alias safety: no two live leases may share
// backing memory, regardless of interleaved releases.
func TestArenaDistinctBacking(t *testing.T) {
	a := NewArena()
	live := map[*float64][]float64{}
	rng := rand.New(rand.NewSource(7))
	sizes := []int{4, 16, 16, 64, 256}
	var held [][]float64
	for i := 0; i < 500; i++ {
		if len(held) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(held))
			buf := held[j]
			held = append(held[:j], held[j+1:]...)
			delete(live, &buf[0])
			a.Release(buf)
			continue
		}
		buf := a.Lease(sizes[rng.Intn(len(sizes))])
		if prev, dup := live[&buf[0]]; dup {
			t.Fatalf("iteration %d: lease aliases a live buffer of len %d", i, len(prev))
		}
		live[&buf[0]] = buf
		held = append(held, buf)
	}
}

// TestArenaCap pins the per-class bound: releases beyond maxPerClass are
// dropped, not retained.
func TestArenaCap(t *testing.T) {
	a := NewArena()
	a.maxPerClass = 2
	bufs := make([][]float64, 5)
	for i := range bufs {
		bufs[i] = a.Lease(8)
	}
	for _, b := range bufs {
		a.Release(b)
	}
	st := a.Stats()
	if want := int64(2 * 8 * 8); st.BytesPooled != want {
		t.Fatalf("BytesPooled = %d, want %d (cap 2 × 8 floats)", st.BytesPooled, want)
	}
	// Only the two retained buffers can come back as hits.
	hits0 := st.Hits
	for i := 0; i < 3; i++ {
		bufs[i] = a.Lease(8)
	}
	st = a.Stats()
	if st.Hits-hits0 != 2 {
		t.Fatalf("hits after cap = %d, want 2", st.Hits-hits0)
	}
}

// TestArenaTrim pins the epoch semantics: classes idle for one full epoch
// are evicted, active classes survive.
func TestArenaTrim(t *testing.T) {
	a := NewArena()
	a.Release(a.Lease(10))
	a.Release(a.Lease(20))
	a.Trim() // both classes were touched this epoch: both survive
	if st := a.Stats(); st.Classes != 2 {
		t.Fatalf("classes after first trim = %d, want 2", st.Classes)
	}
	a.Release(a.Lease(10)) // touch only class 10
	a.Trim()               // class 20 was idle: evicted
	st := a.Stats()
	if st.Classes != 1 {
		t.Fatalf("classes after second trim = %d, want 1", st.Classes)
	}
	if st.BytesPooled != 10*8 {
		t.Fatalf("BytesPooled after trim = %d, want 80", st.BytesPooled)
	}
	if st.Trims != 2 {
		t.Fatalf("trims = %d, want 2", st.Trims)
	}
	// The surviving class still serves hits.
	h0 := st.Hits
	a.Lease(10)
	if got := a.Stats().Hits - h0; got != 1 {
		t.Fatalf("post-trim lease hits = %d, want 1", got)
	}
}

// TestArenaDisabled pins the SetArenaEnabled(false) escape hatch: a
// disabled arena never recycles, restoring pre-arena allocation behaviour.
func TestArenaDisabled(t *testing.T) {
	SetArenaEnabled(false)
	defer SetArenaEnabled(true)
	a := NewArena()
	a.Release(a.Lease(8))
	buf := a.Lease(8)
	for i := range buf {
		if buf[i] != 0 {
			t.Fatalf("disabled lease not zeroed at %d", i)
		}
	}
	st := a.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("disabled stats = %+v, want 0 hits / 2 misses", st)
	}
	if st.BytesPooled != 0 {
		t.Fatalf("disabled BytesPooled = %d, want 0", st.BytesPooled)
	}
}

// TestArenaConcurrent hammers one arena from many goroutines; run under
// -race this pins the locking discipline.
func TestArenaConcurrent(t *testing.T) {
	a := NewArena()
	a.maxPerClass = 16
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				n := 1 + rng.Intn(64)
				buf := a.Lease(n)
				for j := range buf {
					if buf[j] != 0 {
						t.Errorf("concurrent lease not zeroed")
						return
					}
					buf[j] = float64(j)
				}
				a.Release(buf)
			}
		}(int64(g))
	}
	wg.Wait()
	st := a.Stats()
	if st.Leases != 8*300 || st.Releases != 8*300 {
		t.Fatalf("stats = %+v, want 2400 leases and releases", st)
	}
	if st.BytesLive != 0 {
		t.Fatalf("BytesLive after quiesce = %d, want 0", st.BytesLive)
	}
}

// TestArenaZeroLenLease pins the degenerate sizes.
func TestArenaZeroLenLease(t *testing.T) {
	a := NewArena()
	if buf := a.Lease(0); buf != nil {
		t.Fatalf("Lease(0) = %v, want nil", buf)
	}
	a.Release(nil) // must not panic or count
	if st := a.Stats(); st.Releases != 0 {
		t.Fatalf("Release(nil) counted: %+v", st)
	}
}

// TestLeaseDenseRemake pins the Dense integration: Remake retargets a header
// in place onto a recycled lease, which comes back zeroed.
func TestLeaseDenseRemake(t *testing.T) {
	a := NewArena()
	dirty := a.Lease(12)
	for i := range dirty {
		dirty[i] = 2.5
	}
	a.Release(dirty)

	var h Dense
	data := a.Lease(12)
	h.Remake(3, 4, data)
	if r, c := h.Dims(); r != 3 || c != 4 {
		t.Fatalf("Remake dims = %dx%d", r, c)
	}
	if &h.Data()[0] != &data[0] {
		t.Fatal("Remake did not adopt the provided backing")
	}
	for _, v := range h.Data() {
		if v != 0 {
			t.Fatal("recycled lease not zeroed after dirty release")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Remake with mismatched length did not panic")
		}
	}()
	h.Remake(5, 5, data)
}

// TestSoftmaxToMatchesSoftmax pins bit-identity of the buffer-reusing
// variant against the allocating one, including in-place operation.
func TestSoftmaxToMatchesSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		want := Softmax(v)
		dst := make([]float64, n)
		SoftmaxTo(dst, v)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: SoftmaxTo[%d] = %v, Softmax = %v", trial, i, dst[i], want[i])
			}
		}
		// In-place must give the same result.
		inPlace := append([]float64(nil), v...)
		SoftmaxTo(inPlace, inPlace)
		for i := range want {
			if math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: in-place SoftmaxTo[%d] = %v, want %v", trial, i, inPlace[i], want[i])
			}
		}
	}
}

// FuzzArena drives a random lease/release/trim schedule and checks the
// arena's two invariants — zeroed leases and no aliasing among live
// buffers — plus stats consistency.
func FuzzArena(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(42), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, capHint uint8) {
		a := NewArena()
		if c := int(capHint % 8); c > 0 {
			a.maxPerClass = c
		}
		rng := rand.New(rand.NewSource(seed))
		live := map[*float64][]float64{}
		var held [][]float64
		for op := 0; op < 200; op++ {
			switch {
			case len(held) > 0 && rng.Intn(4) == 0:
				j := rng.Intn(len(held))
				buf := held[j]
				held = append(held[:j], held[j+1:]...)
				delete(live, &buf[0])
				a.Release(buf)
			case rng.Intn(50) == 0:
				a.Trim()
			default:
				n := 1 + rng.Intn(40)
				buf := a.Lease(n)
				for i, v := range buf {
					if v != 0 {
						t.Fatalf("op %d: lease not zeroed at %d", op, i)
					}
				}
				if _, dup := live[&buf[0]]; dup {
					t.Fatalf("op %d: lease aliases a live buffer", op)
				}
				for i := range buf {
					buf[i] = 1
				}
				live[&buf[0]] = buf
				held = append(held, buf)
			}
		}
		st := a.Stats()
		if st.Hits+st.Misses != st.Leases {
			t.Fatalf("hits %d + misses %d != leases %d", st.Hits, st.Misses, st.Leases)
		}
		var wantLive int64
		for _, buf := range held {
			wantLive += int64(len(buf)) * 8
		}
		if st.BytesLive != wantLive {
			t.Fatalf("BytesLive = %d, want %d", st.BytesLive, wantLive)
		}
	})
}
