package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
	"fexiot/internal/supervise"
)

// ErrNotReady reports a request against an engine with no published
// snapshot yet (no training has completed). HTTP maps it to 503.
var ErrNotReady = errors.New("serve: no model snapshot published yet")

// ErrClosed reports a request against a closed engine.
var ErrClosed = errors.New("serve: engine closed")

// ErrOverloaded reports a request shed because the pending-request queue
// was full: the engine fails fast so callers can back off and retry,
// instead of parking the request until its deadline expires. HTTP maps it
// to 429 with a Retry-After hint.
var ErrOverloaded = errors.New("serve: overloaded, queue full")

// ErrPanicked reports a request whose inference panicked. The worker is
// recovered and restarted under supervision; only this request fails. HTTP
// maps it to 500.
var ErrPanicked = errors.New("serve: inference panicked")

// Options tunes the engine. The zero value is usable: worker count follows
// mat.Parallelism (the bound the federated fan-outs use too) and the queue
// holds 4× workers. NewEngine resolves the zero values once, when the pool
// starts.
type Options struct {
	// Workers bounds the concurrent inference goroutines (0 = the
	// mat.Parallelism setting at NewEngine).
	Workers int
	// QueueDepth bounds the pending-request queue (0 = 4 × Workers). A
	// request arriving at a full queue is shed immediately with
	// ErrOverloaded — overload degrades into fast, explicit rejections the
	// caller can back off from, never into silent queueing until timeout.
	QueueDepth int
	// MaxBodyBytes bounds HTTP request bodies on the mounted endpoints
	// (0 = 1 MiB); oversized bodies are rejected with 413.
	MaxBodyBytes int64
	// Metrics, when non-nil, receives the fexiot_serve_* telemetry.
	Metrics *obs.Registry
	// FaultHook, when non-nil, is invoked inside the panic-recovered
	// inference region once per worker pass — the chaos-injection seam the
	// resilience tests use to schedule panics and stalls in workers.
	FaultHook func(op string)
}

// withDefaults resolves every zero-value convention documented on Options,
// once: the engine starts its pool from the result and Stats reports it, so
// a later mat.SetParallelism cannot make the two disagree.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = mat.Parallelism()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	return o
}

type reqKind int

const (
	reqDetect reqKind = iota
	reqExplain
)

type request struct {
	kind reqKind
	g    *graph.Graph
	ctx  context.Context
	// done is buffered (capacity 1) so a worker can always deliver even
	// when the caller already gave up on its context.
	done chan response
}

type response struct {
	verdict Verdict
	expl    Explanation
	seq     uint64
	err     error
}

// Engine serves Detect/Explain requests from a bounded worker pool against
// the current snapshot. All methods are safe for concurrent use.
//
// The pool is supervised: a panic during inference answers that one
// request with ErrPanicked and restarts the worker with backoff; a worker
// crash-looping past its restart budget trips a circuit that LiveCheck —
// and from there /healthz — reports.
type Engine struct {
	snap    atomic.Pointer[Snapshot]
	reqs    chan *request
	stop    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	opts    Options
	m       metrics
	sup     *supervise.Supervisor
	cancel  context.CancelFunc
	started time.Time
	sheds   atomic.Int64
}

// NewEngine starts the supervised worker pool (and the snapshot-age ticker
// when metrics are enabled). The engine serves ErrNotReady until the first
// Publish.
func NewEngine(opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		reqs:    make(chan *request, opts.QueueDepth),
		stop:    make(chan struct{}),
		opts:    opts,
		m:       newMetrics(opts.Metrics),
		started: time.Now(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	e.sup = supervise.New(supervise.Options{
		Policy:  supervise.Policy{Backoff: 2 * time.Millisecond, MaxBackoff: 250 * time.Millisecond},
		Metrics: opts.Metrics,
	})
	for i := 0; i < opts.Workers; i++ {
		e.sup.Go(ctx, "serve-worker", e.workerLoop)
	}
	if opts.Metrics != nil {
		e.wg.Add(1)
		go e.ageTicker()
	}
	return e
}

// Publish atomically swaps the live snapshot. In-flight requests finish on
// the snapshot they loaded; requests dequeued after the swap see the new
// one. Nil snapshots are ignored.
func (e *Engine) Publish(s *Snapshot) {
	if s == nil {
		return
	}
	e.snap.Store(s)
	e.m.published.Inc()
	e.m.snapshotSeq.Set(float64(s.Seq()))
	e.m.snapshotAge.Set(time.Since(s.Created()).Seconds())
}

// SnapshotSeq reports the live snapshot's publish sequence number and
// whether one has been published at all. Streaming sessions poll it to
// decide whether a cached rolling verdict still tracks the live model.
func (e *Engine) SnapshotSeq() (uint64, bool) {
	if s := e.snap.Load(); s != nil {
		return s.Seq(), true
	}
	return 0, false
}

// EngineStats is the operational snapshot behind GET /v1/status.
type EngineStats struct {
	Workers            int
	QueueDepth         int
	QueueLength        int
	Shed               int64
	SnapshotSeq        uint64
	SnapshotAgeSeconds float64
	UptimeSeconds      float64
}

// Stats reports pool sizing, queue load, shed count and snapshot identity.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Workers:       e.opts.Workers,
		QueueDepth:    e.opts.QueueDepth,
		QueueLength:   len(e.reqs),
		Shed:          e.sheds.Load(),
		UptimeSeconds: time.Since(e.started).Seconds(),
	}
	if s := e.snap.Load(); s != nil {
		st.SnapshotSeq = s.Seq()
		st.SnapshotAgeSeconds = time.Since(s.Created()).Seconds()
	}
	return st
}

// LiveCheck returns the engine's liveness probe: nil while the worker pool
// is within its restart budget, the tripped circuit's cause once a worker
// has crash-looped to death. Wire it to /healthz.
func (e *Engine) LiveCheck() func() error { return e.sup.Check }

// ReadyCheck returns the engine's readiness probe: nil once a snapshot has
// been published and — when maxAge > 0 — is no older than maxAge, so a
// server whose republisher died eventually stops advertising itself. Wire
// it to /readyz.
func (e *Engine) ReadyCheck(maxAge time.Duration) func() error {
	return func() error {
		select {
		case <-e.stop:
			return ErrClosed
		default:
		}
		s := e.snap.Load()
		if s == nil {
			return ErrNotReady
		}
		if maxAge > 0 {
			if age := time.Since(s.Created()); age > maxAge {
				return fmt.Errorf("serve: snapshot stale: age %s exceeds %s",
					age.Round(time.Millisecond), maxAge)
			}
		}
		return nil
	}
}

// WorkerRestarts reports how many times the supervisor has restarted a
// panicked worker.
func (e *Engine) WorkerRestarts() int64 { return e.sup.Restarts("serve-worker") }

// Detect classifies g on the worker pool. It blocks until a worker
// answers, ctx expires, or the engine closes; the returned sequence number
// identifies the snapshot that served the request. A full queue sheds the
// request immediately with ErrOverloaded.
func (e *Engine) Detect(ctx context.Context, g *graph.Graph) (Verdict, uint64, error) {
	resp := e.submit(ctx, &request{kind: reqDetect, g: g, ctx: ctx})
	return resp.verdict, resp.seq, resp.err
}

// Explain runs the explanation search on the worker pool.
func (e *Engine) Explain(ctx context.Context, g *graph.Graph) (Explanation, uint64, error) {
	resp := e.submit(ctx, &request{kind: reqExplain, g: g, ctx: ctx})
	return resp.expl, resp.seq, resp.err
}

func (e *Engine) submit(ctx context.Context, r *request) response {
	r.done = make(chan response, 1)
	e.m.inflight.Add(1)
	defer e.m.inflight.Add(-1)
	sp := obs.StartSpan(e.m.latency(r.kind))
	defer sp.End()
	select {
	case e.reqs <- r:
		e.m.queueDepth.Set(float64(len(e.reqs)))
	case <-e.stop:
		return response{err: ErrClosed}
	default:
		// Saturated queue: shed now, while the caller can still usefully
		// back off, instead of parking the request until its deadline.
		select {
		case <-e.stop:
			return response{err: ErrClosed}
		default:
		}
		e.m.shed.Inc()
		e.sheds.Add(1)
		return response{err: ErrOverloaded}
	}
	select {
	case resp := <-r.done:
		return resp
	case <-ctx.Done():
		return response{err: ctx.Err()}
	case <-e.stop:
		return response{err: ErrClosed}
	}
}

// Close stops the workers and fails queued requests with ErrClosed. It is
// idempotent and waits for the pool to drain.
func (e *Engine) Close() {
	e.once.Do(func() { close(e.stop) })
	e.cancel()
	e.sup.Wait()
	e.wg.Wait()
}

// workerLoop is one supervised pool member. It returns nil on shutdown; a
// panic during inference surfaces here as an error, handing the goroutine
// back to the supervisor for a backed-off restart (the panicked request
// itself was already answered with ErrPanicked).
func (e *Engine) workerLoop(ctx context.Context) error {
	// Each worker owns a long-lived inference workspace: detect requests
	// run on its recycled tape memory instead of allocating a fresh graph
	// per request. A restarted worker simply builds a new one.
	ws := gnn.NewWorkspace()
	for {
		select {
		case <-e.stop:
			return nil
		case <-ctx.Done():
			return nil
		case r := <-e.reqs:
			e.m.queueDepth.Set(float64(len(e.reqs)))
			if err := e.process(r, ws); err != nil {
				return err
			}
		}
	}
}

// process answers one dequeued request on the worker's own workspace. The
// snapshot is loaded exactly once, so the request is answered by a single
// consistent model even if Publish lands mid-flight. Inference runs inside
// a panic-recovery guard: a panic becomes an ErrPanicked response for the
// caller plus a non-nil error for the supervisor, never an unwound process.
func (e *Engine) process(r *request, ws *gnn.Workspace) (err error) {
	if r.ctx != nil && r.ctx.Err() != nil {
		r.done <- response{err: r.ctx.Err()}
		return nil
	}
	snap := e.snap.Load()
	if snap == nil {
		r.done <- response{err: ErrNotReady}
		return nil
	}
	var resp response
	defer func() {
		if v := recover(); v != nil {
			e.m.panics.Inc()
			err = fmt.Errorf("%w: %v", ErrPanicked, v)
			resp = response{err: err}
		}
		r.done <- resp
	}()
	if h := e.opts.FaultHook; h != nil {
		h("infer")
	}
	switch r.kind {
	case reqExplain:
		// The search stops at its next reward evaluation once the caller
		// has gone, so an abandoned explain does not keep the worker from
		// the requests queued behind it.
		ex, st, cancelled := snap.explain(r.ctx, ws, r.g)
		e.m.explained(st)
		if cancelled != nil {
			resp = response{err: cancelled}
		} else {
			resp = response{expl: ex, seq: snap.Seq()}
		}
	default:
		resp = response{verdict: snap.DetectWith(ws, r.g), seq: snap.Seq()}
	}
	return nil
}

// ageTicker keeps the snapshot-age gauge current between publishes.
func (e *Engine) ageTicker() {
	defer e.wg.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			if s := e.snap.Load(); s != nil {
				e.m.snapshotAge.Set(time.Since(s.Created()).Seconds())
			}
		}
	}
}
