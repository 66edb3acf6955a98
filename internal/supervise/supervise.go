// Package supervise runs long-lived goroutines under a restart policy so a
// panic or a transient failure in one component degrades the process
// instead of killing it. A supervised task that fails is restarted with
// exponential backoff plus deterministic jitter; a task that keeps failing
// trips a per-task circuit breaker, which surfaces through Check as a
// failed health probe (/healthz 503) rather than a crash loop.
//
// The runtime wraps three components in supervisors: the serve engine's
// inference workers (a panicking worker answers its request with an error
// and is restarted), the fedproto accept loop (a transient Accept error no
// longer bricks admissions for the rest of the federation), and — via
// Retry — the checkpoint writer (a flaky disk gets a bounded number of
// backed-off attempts before the round fails).
package supervise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"fexiot/internal/obs"
)

// Policy defaults (zero-value resolution).
const (
	DefaultMaxRestarts = 8
	DefaultBackoff     = 50 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
	DefaultResetAfter  = 30 * time.Second
)

// Policy tunes restart behaviour. The zero value is usable: 8 consecutive
// restarts, 50ms initial backoff doubling to a 5s cap, and a 30s
// "ran long enough" horizon that resets the failure streak.
type Policy struct {
	// MaxRestarts bounds consecutive restarts of one task: the next failure
	// after the budget trips the circuit. Zero selects DefaultMaxRestarts;
	// negative disables the circuit (restart forever).
	MaxRestarts int
	// Backoff is the delay before the first restart; it doubles per
	// consecutive failure. Zero selects DefaultBackoff.
	Backoff time.Duration
	// MaxBackoff caps the doubling. Zero selects DefaultMaxBackoff.
	MaxBackoff time.Duration
	// ResetAfter: a run that survives this long before failing resets the
	// failure streak and the backoff — only rapid crash loops trip the
	// circuit. Zero selects DefaultResetAfter.
	ResetAfter time.Duration
	// Seed drives the backoff jitter deterministically.
	Seed int64
}

func (p Policy) maxRestarts() int {
	switch {
	case p.MaxRestarts < 0:
		return math.MaxInt
	case p.MaxRestarts == 0:
		return DefaultMaxRestarts
	default:
		return p.MaxRestarts
	}
}

func (p Policy) backoff() time.Duration {
	if p.Backoff <= 0 {
		return DefaultBackoff
	}
	return p.Backoff
}

func (p Policy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return DefaultMaxBackoff
	}
	return p.MaxBackoff
}

func (p Policy) resetAfter() time.Duration {
	if p.ResetAfter <= 0 {
		return DefaultResetAfter
	}
	return p.ResetAfter
}

// PanicError wraps a recovered panic so supervisors and retries can treat
// a crash as an ordinary failure. The stack is captured at recovery.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Run invokes fn once, converting a panic into a *PanicError instead of
// unwinding the process.
func Run(ctx context.Context, fn func(context.Context) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// Options configures a Supervisor.
type Options struct {
	Policy Policy
	// Metrics, when non-nil, exposes fexiot_supervisor_restarts_total{task}.
	Metrics *obs.Registry
	// OnTrip, when non-nil, is invoked (off the supervisor lock) each time
	// a task's circuit trips, with the task name and the final failure.
	OnTrip func(task string, cause error)
}

// taskState is one supervised goroutine's book-keeping, guarded by
// Supervisor.mu.
type taskState struct {
	name     string
	restarts int64
	tripped  error
}

// Supervisor owns a set of supervised goroutines sharing one policy. All
// methods are safe for concurrent use.
type Supervisor struct {
	opts     Options
	restarts *obs.CounterVec

	mu    sync.Mutex
	rng   *rand.Rand
	tasks []*taskState
	wg    sync.WaitGroup
}

// New creates a supervisor.
func New(opts Options) *Supervisor {
	s := &Supervisor{
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Policy.Seed ^ 0x5eed5eed5eed)),
	}
	if opts.Metrics != nil {
		s.restarts = opts.Metrics.CounterVec("fexiot_supervisor_restarts_total",
			"supervised task restarts after a panic or error", "task")
	}
	return s
}

// Go runs fn under supervision until it returns nil (orderly completion),
// ctx is cancelled, or the restart circuit trips. Several tasks may share
// a name (e.g. a worker pool); restart counts aggregate per name.
func (s *Supervisor) Go(ctx context.Context, name string, fn func(context.Context) error) {
	t := &taskState{name: name}
	s.mu.Lock()
	s.tasks = append(s.tasks, t)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.loop(ctx, t, fn)
}

func (s *Supervisor) loop(ctx context.Context, t *taskState, fn func(context.Context) error) {
	defer s.wg.Done()
	p := s.opts.Policy
	backoff := p.backoff()
	streak := 0
	for {
		start := time.Now()
		err := Run(ctx, fn)
		if err == nil || ctx.Err() != nil {
			return
		}
		if time.Since(start) >= p.resetAfter() {
			streak = 0
			backoff = p.backoff()
		}
		streak++
		if streak > p.maxRestarts() {
			s.mu.Lock()
			t.tripped = err
			s.mu.Unlock()
			if s.opts.OnTrip != nil {
				s.opts.OnTrip(t.name, err)
			}
			return
		}
		s.mu.Lock()
		t.restarts++
		jitter := 0.5 + s.rng.Float64()
		s.mu.Unlock()
		s.restarts.With(t.name).Inc()
		timer := time.NewTimer(time.Duration(float64(backoff) * jitter))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return
		}
		backoff *= 2
		if backoff > p.maxBackoff() {
			backoff = p.maxBackoff()
		}
	}
}

// Check reports the first tripped circuit, or nil while every task is
// healthy — the liveness probe supervised subsystems expose on /healthz.
func (s *Supervisor) Check() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tasks {
		if t.tripped != nil {
			return fmt.Errorf("supervise: task %q circuit open: %w", t.name, t.tripped)
		}
	}
	return nil
}

// Restarts reports the total restarts across all tasks with the given name.
func (s *Supervisor) Restarts(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, t := range s.tasks {
		if t.name == name {
			n += t.restarts
		}
	}
	return n
}

// Wait blocks until every supervised task has returned (orderly exit,
// cancellation, or tripped circuit).
func (s *Supervisor) Wait() { s.wg.Wait() }

// Retry invokes fn until it succeeds, converting panics to errors and
// backing off (with deterministic jitter) between attempts. The policy's
// MaxRestarts bounds the retries: fn runs at most 1+MaxRestarts times.
// Cancelling ctx stops further attempts and returns the last failure.
func Retry(ctx context.Context, p Policy, fn func() error) error {
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5eed5eed5eed))
	backoff := p.backoff()
	var err error
	for attempt := 0; ; attempt++ {
		err = Run(ctx, func(context.Context) error { return fn() })
		if err == nil {
			return nil
		}
		if attempt >= p.maxRestarts() || ctx.Err() != nil {
			return err
		}
		timer := time.NewTimer(time.Duration(float64(backoff) * (0.5 + rng.Float64())))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return err
		}
		backoff *= 2
		if backoff > p.maxBackoff() {
			backoff = p.maxBackoff()
		}
	}
}
