// Package chaos is the unified fault-injection subsystem of FexIoT: every
// deliberately broken thing the resilience tests throw at the runtime is
// built here, seeded and deterministic, so a failing soak run replays
// exactly.
//
// Three injection surfaces, one per layer the runtime touches:
//
//   - Conn wraps a net.Conn with scriptable link faults — read/write delay,
//     silent write blackholes, and hard mid-stream kills.
//   - FS implements the checkpoint filesystem seam with scripted
//     write/sync/rename failures, modelling a full disk or a flaky volume
//     that heals after a few attempts.
//   - PanicOnCall builds hooks that panic on an exact invocation, driving
//     the serve engine's worker-recovery path and the supervisor's restart
//     circuit.
//
// Plan ties them together: a splitmix64-seeded decision stream for soak
// harnesses that need "random" kill times, victim picks and fault budgets
// without ever consulting the real clock or global rng — the same seed
// always produces the same federation-killing schedule.
package chaos

import (
	"fmt"
	"sync"
	"time"
)

// splitmix64 is the SplitMix64 finalizer: a full-avalanche bijection on
// 64-bit state, so consecutive outputs are statistically independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Plan is a seeded, deterministic fault-decision stream. All methods are
// safe for concurrent use; concurrency does not perturb the per-call
// determinism of a single-goroutine consumer, which is how soak harnesses
// should draw their schedules.
type Plan struct {
	mu    sync.Mutex
	state uint64
}

// NewPlan seeds a fault plan. Equal seeds yield identical decision streams.
func NewPlan(seed int64) *Plan {
	return &Plan{state: splitmix64(uint64(seed))}
}

func (p *Plan) next() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state += 0x9e3779b97f4a7c15
	return splitmix64(p.state)
}

// Intn draws a uniform int in [0, n). n must be positive.
func (p *Plan) Intn(n int) int {
	if n <= 0 {
		panic("chaos: Intn on non-positive n")
	}
	return int(p.next() % uint64(n))
}

// Float64 draws a uniform float64 in [0, 1).
func (p *Plan) Float64() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// Duration draws a uniform duration in [min, max).
func (p *Plan) Duration(min, max time.Duration) time.Duration {
	if max <= min {
		return min
	}
	return min + time.Duration(p.next()%uint64(max-min))
}

// PanicOnCall returns a hook that panics with msg on exactly the nth
// invocation (1-based) and is a no-op on every other call — a scheduled
// crash for exercising panic-recovery paths. The hook is safe for
// concurrent use and panics at most once.
func PanicOnCall(n int, msg string) func() {
	var mu sync.Mutex
	calls := 0
	return func() {
		mu.Lock()
		calls++
		fire := calls == n
		mu.Unlock()
		if fire {
			panic(fmt.Sprintf("chaos: scheduled panic (call %d): %s", n, msg))
		}
	}
}
