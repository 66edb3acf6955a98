package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one operation as the load generator saw it. Offsets are from
// the phase start. due is when the schedule wanted the operation sent,
// start when a worker sent it, from when its latency is counted.
//
// Open-loop latency runs from due whenever the worker was still busy at
// due — a stall is then charged to every operation it delayed, the
// coordinated omission correction. When the worker was idle and merely
// woke late (this class of VM wakes sleepers on a 1 ms tick, half the
// latency being measured), the operation in effect arrived at start, and
// counting from due would add the generator's own timer error to the
// system's latency. Either way start − due is reported as send lag. In a
// closed loop all three coincide.
type sample struct {
	class            int
	due, start, from time.Duration
	end              time.Duration
	ok               bool
}

func (s sample) latencyMS() float64 { return float64(s.end-s.from) / float64(time.Millisecond) }
func (s sample) lagMS() float64     { return float64(s.start-s.due) / float64(time.Millisecond) }

// phase is the record of one timed load phase.
type phase struct {
	samples []sample
	wall    time.Duration // first due time to last completion
	cpuMS   float64       // closed loops: process CPU (user+system) per operation, ms
}

// opFunc performs operation number k on worker w and reports its class
// (workloads with one class return 0) and whether the reply was correct.
// Each worker owns one keep-alive connection, so w also names the
// connection.
type opFunc func(w, k int) (class int, ok bool)

// processCPU reads the process's cumulative user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuSlice is the slice width CPU per operation is taken over.
const cpuSlice = time.Second

// cpuMeter reads process CPU once per cpuSlice of a run of operations, so
// CPU per operation can be reported as the quiet quartile over slices (see
// stats.go): a noisy neighbour's seconds inflate the CPU of the slices they
// fall in (a cache miss is CPU time), not the reported number. One
// goroutine calls tick.
type cpuMeter struct {
	t0  time.Time
	at  []time.Duration // when each slice ended
	cpu []time.Duration // process CPU then
	ops []int64         // operations completed then
}

func newCPUMeter() *cpuMeter {
	return &cpuMeter{t0: time.Now(), at: []time.Duration{0}, cpu: []time.Duration{processCPU()}, ops: []int64{0}}
}

// tick records that `ops` operations have completed so far.
func (m *cpuMeter) tick(ops int64) {
	if now := time.Since(m.t0); now-m.at[len(m.at)-1] >= cpuSlice {
		m.at, m.cpu, m.ops = append(m.at, now), append(m.cpu, processCPU()), append(m.ops, ops)
	}
}

// msPerOp is the quiet quartile over the slices of CPU ÷ operations; with
// fewer than minSlices slices, CPU ÷ operations of the whole run (ops
// operations).
func (m *cpuMeter) msPerOp(ops int64) float64 {
	if len(m.at) <= minSlices {
		if ops == 0 {
			return 0
		}
		return float64(processCPU()-m.cpu[0]) / float64(time.Millisecond) / float64(ops)
	}
	var per []float64
	for i := 1; i < len(m.at); i++ {
		if n := m.ops[i] - m.ops[i-1]; n > 0 {
			per = append(per, float64(m.cpu[i]-m.cpu[i-1])/float64(time.Millisecond)/float64(n))
		}
	}
	return quietLow(per)
}

// openLoop issues operations on a fixed schedule — operation k is due at
// k/rate seconds — for dur, from `workers` goroutines. With static false
// the workers share the schedule (whoever is free takes the next due
// operation); with static true operation k always belongs to worker
// k mod workers, which keeps per-key ordering for workloads whose
// operations on one key must not overtake each other. A worker that falls
// behind does not skip: it sends late, and the lateness shows up both in
// the latency (see sample) and in the reported send lag.
func openLoop(rate float64, dur time.Duration, workers int, static bool, do opFunc) phase {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(dur / interval)
	per := make([][]sample, workers)
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]sample, 0, total/workers+16)
			own := w
			for {
				var k int
				if static {
					k = own
					own += workers
				} else {
					k = int(next.Add(1) - 1)
				}
				if k >= total {
					break
				}
				due := time.Duration(k) * interval
				idle := time.Since(t0) < due
				sleepUntil(t0, due)
				start := time.Since(t0)
				from := due
				if idle {
					from = start
				}
				class, ok := do(w, k)
				buf = append(buf, sample{class: class, due: due, start: start, from: from,
					end: time.Since(t0), ok: ok})
			}
			per[w] = buf
		}(w)
	}
	wg.Wait()
	return collect(per, time.Since(t0))
}

// sleepUntil blocks until `due` after t0.
func sleepUntil(t0 time.Time, due time.Duration) {
	if d := due - time.Since(t0); d > 0 {
		time.Sleep(d)
	}
}

// closedLoop runs `workers` clients that each send their next operation as
// soon as the previous one completes, for dur. Operation numbers are drawn
// from one shared counter unless static, in which case worker w sees
// w, w+workers, …. Worker 0 keeps the phase's cpuMeter.
func closedLoop(dur time.Duration, workers int, static bool, do opFunc) phase {
	per := make([][]sample, workers)
	var next, done atomic.Int64
	meter := newCPUMeter()
	t0 := meter.t0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []sample
			own := w
			for time.Since(t0) < dur {
				var k int
				if static {
					k = own
					own += workers
				} else {
					k = int(next.Add(1) - 1)
				}
				start := time.Since(t0)
				class, ok := do(w, k)
				buf = append(buf, sample{class: class, due: start, start: start, from: start,
					end: time.Since(t0), ok: ok})
				if n := done.Add(1); w == 0 {
					meter.tick(n)
				}
			}
			per[w] = buf
		}(w)
	}
	wg.Wait()
	p := collect(per, time.Since(t0))
	p.cpuMS = meter.msPerOp(int64(len(p.samples)))
	return p
}

// satSlice is the slice width closed-loop rates are taken over.
const satSlice = time.Second

// errWarm reports a warm-up operation that failed its correctness gate.
var errWarm = errors.New("warm-up operation failed")

// warm runs operations 0..n-1 once, spread over the workers, unrecorded:
// connections get established and caches reach their steady state before
// any timed phase. It reports whether every operation passed its gate.
func warm(workers, n int, do opFunc) bool {
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				if _, ok := do(w, k); !ok {
					bad.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return bad.Load() == 0
}

func collect(per [][]sample, wall time.Duration) phase {
	var all []sample
	for _, b := range per {
		all = append(all, b...)
	}
	return phase{samples: all, wall: wall}
}

// failed counts operations whose reply was wrong or missing.
func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns latency (ms) and due offset (s) of every sample of the
// class (class < 0 selects all).
func (p phase) latencies(class int) (ms, at []float64) {
	for _, s := range p.samples {
		if class >= 0 && s.class != class {
			continue
		}
		ms = append(ms, s.latencyMS())
		at = append(at, s.due.Seconds())
	}
	return ms, at
}

// lagP95MS is the 95th percentile of how late operations were sent.
func (p phase) lagP95MS() float64 {
	lag := make([]float64, len(p.samples))
	for i, s := range p.samples {
		lag[i] = s.lagMS()
	}
	return percentile(sortedCopy(lag), 95)
}

// perSecond is completed operations over the phase wall time.
func (p phase) perSecond() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.samples)) / p.wall.Seconds()
}

// quietPerSecond is operations completed per second, taken as the quiet
// quartile (see stats.go) over consecutive slices of the given width; the
// last, partial slice is dropped. A slice's rate is counted between its
// first and its last completion, so it is not a whole number of operations
// over the width. Falls back to perSecond with fewer than minSlices slices.
func (p phase) quietPerSecond(width time.Duration) float64 {
	full := int(p.wall / width)
	if full < minSlices {
		return p.perSecond()
	}
	n := make([]int, full)
	first, last := make([]time.Duration, full), make([]time.Duration, full)
	for _, s := range p.samples {
		k := int(s.end / width)
		if k >= full {
			continue
		}
		if n[k] == 0 || s.end < first[k] {
			first[k] = s.end
		}
		last[k] = max(last[k], s.end)
		n[k]++
	}
	var rates []float64
	for k := range n {
		if n[k] > 1 && last[k] > first[k] {
			rates = append(rates, float64(n[k]-1)/(last[k]-first[k]).Seconds())
		}
	}
	if len(rates) < minSlices {
		return p.perSecond()
	}
	return quietHigh(rates)
}
