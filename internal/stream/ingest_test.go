package stream

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"fexiot/internal/eventlog"
	"fexiot/internal/rng"
)

// refWindow is Ingest's window arithmetic at commit bce5ada, kept as the
// oracle for the merge: concatenate, stable-sort everything by time, apply
// the age bound then the count bound, compare with what was there.
type refWindow struct {
	window  []eventlog.Event
	maxTime int64
}

func (r *refWindow) ingest(evs []eventlog.Event, maxAge int64, maxEvents int) IngestResult {
	old := r.window
	next := make([]eventlog.Event, 0, len(old)+len(evs))
	next = append(next, old...)
	next = append(next, evs...)
	for _, e := range evs {
		if e.Time > r.maxTime {
			r.maxTime = e.Time
		}
	}
	sort.SliceStable(next, func(i, j int) bool { return next[i].Time < next[j].Time })
	cutoff := r.maxTime - maxAge
	lo := sort.Search(len(next), func(i int) bool { return next[i].Time >= cutoff })
	next = next[lo:]
	if over := len(next) - maxEvents; over > 0 {
		next = next[over:]
	}
	changed := len(next) != len(old)
	if !changed {
		for i := range next {
			if next[i] != old[i] {
				changed = true
				break
			}
		}
	}
	res := IngestResult{
		Ingested:     len(evs),
		Dropped:      len(old) + len(evs) - len(next),
		WindowEvents: len(next),
		Changed:      changed,
	}
	if len(next) > 0 {
		res.WindowSpan = next[len(next)-1].Time - next[0].Time
	}
	r.window = next
	return res
}

// TestIngestMatchesSortReference drives the merge and the reference with
// the same random batches — in order, out of order, stale, all at one
// timestamp, far larger than the window, drawn from two event payloads so
// that repeats are common — and demands the same window and the same
// IngestResult after every one, with both bounds small enough to bite on
// nearly every step.
func TestIngestMatchesSortReference(t *testing.T) {
	for _, cfg := range []struct {
		maxEvents int
		maxAge    int64
		devices   int
	}{
		{maxEvents: 8, maxAge: 30, devices: 1},
		{maxEvents: 8, maxAge: 30, devices: 2},
		{maxEvents: 64, maxAge: 50, devices: 3},
		{maxEvents: 64, maxAge: 1 << 40, devices: 2},
		{maxEvents: 1 << 20, maxAge: 40, devices: 2},
	} {
		t.Run(fmt.Sprintf("events=%d,age=%d,devices=%d", cfg.maxEvents, cfg.maxAge, cfg.devices), func(t *testing.T) {
			m, _, _ := testManager(t, Options{MaxWindowEvents: cfg.maxEvents, MaxWindowAge: cfg.maxAge})
			id, _ := m.Create(testRules())
			s, _ := m.get(id)
			ref := &refWindow{}
			r := rng.New(int64(cfg.maxEvents) + cfg.maxAge)
			clock, unchanged, changed := int64(0), 0, 0
			for step := 0; step < 3000; step++ {
				n := r.Intn(6)
				switch r.Intn(12) {
				case 0:
					n = 0
				case 1:
					n = cfg.maxEvents + r.Intn(cfg.maxEvents) // larger than the window can hold
					if n > 200 {
						n = 200
					}
				}
				batch := make([]eventlog.Event, n)
				shape := r.Intn(6)
				for i := range batch {
					var tm int64
					switch shape {
					case 0, 1: // in order, moving on
						clock += int64(r.Intn(3))
						tm = clock
					case 2: // out of order, around now
						tm = clock - int64(r.Intn(20)) + int64(r.Intn(5))
					case 3: // all at one timestamp, the window's edge or its newest
						tm = clock - int64(shape*r.Intn(2))*cfg.maxAge
					case 4: // stale, or right at the age bound
						tm = clock - cfg.maxAge - 2 + int64(r.Intn(4))
					case 5: // the window's oldest time again
						if len(ref.window) > 0 {
							tm = ref.window[0].Time
						}
					}
					batch[i] = ev(tm, fmt.Sprintf("d%d", r.Intn(cfg.devices)))
				}
				if clock < ref.maxTime {
					clock = ref.maxTime
				}
				sent := append([]eventlog.Event(nil), batch...)
				got, err := m.Ingest(id, batch)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.ingest(sent, cfg.maxAge, cfg.maxEvents)
				if got != want {
					t.Fatalf("step %d: result %+v, want %+v", step, got, want)
				}
				if !slices.Equal(batch, sent) {
					t.Fatalf("step %d: Ingest reordered the caller's batch", step)
				}
				if !slices.Equal(s.window, ref.window) {
					t.Fatalf("step %d: window\n%v\nwant\n%v", step, s.window, ref.window)
				}
				if got.Changed {
					changed++
				} else if n > 0 {
					unchanged++
				}
			}
			if changed < 500 || unchanged < 50 {
				t.Fatalf("fixture one-sided: %d batches changed the window, %d non-empty ones did not", changed, unchanged)
			}
		})
	}
}

// fullWindow opens a session whose window sits at the default 4096-event
// cap and returns a source of in-order 32-event batches.
func fullWindow(tb testing.TB) (m *Manager, id string, nextBatch func() []eventlog.Event) {
	m, _, _ = testManager(tb, Options{})
	id, _ = m.Create(testRules())
	clock := int64(0)
	nextBatch = func() []eventlog.Event {
		batch := make([]eventlog.Event, 32)
		for i := range batch {
			clock += int64(i % 2) // ≈ 0.5 events/s: the age bound stays out of it
			batch[i] = ev(clock, "light")
		}
		return batch
	}
	for i := 0; i < 4096/32+8; i++ {
		if _, err := m.Ingest(id, nextBatch()); err != nil {
			tb.Fatal(err)
		}
	}
	return m, id, nextBatch
}

func BenchmarkIngest(b *testing.B) {
	b.Run("window=4096,batch=32", func(b *testing.B) {
		m, id, nextBatch := fullWindow(b)
		batches := make([][]eventlog.Event, b.N)
		for i := range batches {
			batches[i] = nextBatch()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, batch := range batches {
			if res, _ := m.Ingest(id, batch); res.WindowEvents != 4096 || !res.Changed {
				b.Fatalf("ingest into a full window: %+v", res)
			}
		}
	})
}

// TestIngestAllocatesPerBatchNotPerWindow is the ledger row's hard half: at
// commit bce5ada every batch allocated (and reflect-sorted) a fresh
// 4096 × 104-byte window. Now a full window takes an in-order batch in
// place, sliding back to the front of its buffer every so often.
func TestIngestAllocatesPerBatchNotPerWindow(t *testing.T) {
	m, id, nextBatch := fullWindow(t)
	batches := make([][]eventlog.Event, 0, 301)
	for len(batches) < cap(batches) {
		batches = append(batches, nextBatch())
	}
	i := 0
	allocs := testing.AllocsPerRun(len(batches)-1, func() {
		m.Ingest(id, batches[i])
		i++
	})
	if allocs > 0 {
		t.Fatalf("%.2f allocations per in-order batch into a full window, want 0", allocs)
	}
}
