package stream

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fexiot/internal/eventlog"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
	"fexiot/internal/serve"
)

// stubEngine is a controllable Engine: tests move the published sequence
// and count detections.
type stubEngine struct {
	mu        sync.Mutex
	seq       uint64
	published bool
	detects   int
	verdict   serve.Verdict
}

func (s *stubEngine) Detect(_ context.Context, g *graph.Graph) (serve.Verdict, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.published {
		return serve.Verdict{}, 0, serve.ErrNotReady
	}
	s.detects++
	v := s.verdict
	v.Score = float64(g.N()) // score mirrors the graph so tests see refusions
	return v, s.seq, nil
}

func (s *stubEngine) SnapshotSeq() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.published
}

func (s *stubEngine) publish(seq uint64) {
	s.mu.Lock()
	s.seq, s.published = seq, true
	s.mu.Unlock()
}

func (s *stubEngine) detectCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detects
}

// testManager builds a manager over a stub engine and a builder that makes
// one node per window event, counting build calls (= refusions).
func testManager(t testing.TB, opts Options) (*Manager, *stubEngine, *atomic.Int64) {
	t.Helper()
	eng := &stubEngine{}
	var builds atomic.Int64
	build := func(rs []*rules.Rule, log eventlog.Log) (*graph.Graph, error) {
		builds.Add(1)
		g := &graph.Graph{Online: true}
		for range log {
			g.AddNode(graph.Node{})
		}
		return g, nil
	}
	m := NewManager(eng, build, opts)
	t.Cleanup(m.Shutdown)
	return m, eng, &builds
}

func testRules() []*rules.Rule { return []*rules.Rule{{ID: "r1"}} }

func ev(tm int64, dev string) eventlog.Event {
	return eventlog.Event{Time: tm, Device: dev, Value: "on"}
}

func TestStreamCreateValidation(t *testing.T) {
	m, _, _ := testManager(t, Options{})
	if _, err := m.Create(nil); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("empty rules: err = %v, want ErrBadRequest", err)
	}
	id, err := m.Create(testRules())
	if err != nil || id == "" {
		t.Fatalf("create: %q, %v", id, err)
	}
	if m.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", m.Sessions())
	}
}

func TestStreamWindowCountBound(t *testing.T) {
	m, _, _ := testManager(t, Options{MaxWindowEvents: 3})
	id, _ := m.Create(testRules())
	res, err := m.Ingest(id, []eventlog.Event{
		ev(1, "a"), ev(2, "b"), ev(3, "c"), ev(4, "d"), ev(5, "e"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowEvents != 3 || res.Dropped != 2 {
		t.Fatalf("window=%d dropped=%d, want 3/2", res.WindowEvents, res.Dropped)
	}
	if res.WindowSpan != 2 { // events 3..5 survive
		t.Fatalf("span = %d, want 2", res.WindowSpan)
	}
}

func TestStreamWindowAgeBound(t *testing.T) {
	m, _, _ := testManager(t, Options{MaxWindowAge: 10})
	id, _ := m.Create(testRules())
	m.Ingest(id, []eventlog.Event{ev(1, "old"), ev(2, "old2")})
	// A much newer event ages the first two out (cutoff = 100-10 = 90).
	res, err := m.Ingest(id, []eventlog.Event{ev(100, "new")})
	if err != nil {
		t.Fatal(err)
	}
	if res.WindowEvents != 1 || res.Dropped != 2 {
		t.Fatalf("window=%d dropped=%d, want 1/2", res.WindowEvents, res.Dropped)
	}
}

func TestStreamRefusionOnlyOnChange(t *testing.T) {
	m, eng, builds := testManager(t, Options{MaxWindowEvents: 4})
	eng.publish(1)
	id, _ := m.Create(testRules())
	m.Ingest(id, []eventlog.Event{ev(1, "a"), ev(2, "b")})

	ctx := context.Background()
	v1, err := m.Verdict(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Refused || !v1.Rescored || builds.Load() != 1 {
		t.Fatalf("first read: refused=%v rescored=%v builds=%d, want true/true/1",
			v1.Refused, v1.Rescored, builds.Load())
	}
	if v1.Nodes != 2 || v1.Verdict.Score != 2 {
		t.Fatalf("nodes=%d score=%v, want 2/2", v1.Nodes, v1.Verdict.Score)
	}

	// Unchanged window + unchanged snapshot → pure cache read.
	v2, _ := m.Verdict(ctx, id)
	if v2.Refused || v2.Rescored || builds.Load() != 1 {
		t.Fatalf("cached read: refused=%v rescored=%v builds=%d, want false/false/1",
			v2.Refused, v2.Rescored, builds.Load())
	}
	if v2.Verdict != v1.Verdict {
		t.Fatal("cached verdict differs from computed verdict")
	}

	// Ingest does not dedupe: re-ingesting the same batch grows the window
	// (a,a,b,b fits in 4), so it IS a change and the next read re-fuses.
	res, _ := m.Ingest(id, []eventlog.Event{ev(1, "a"), ev(2, "b")})
	if !res.Changed || res.WindowEvents != 4 || res.Dropped != 0 {
		t.Fatalf("duplicate batch: changed=%v window=%d dropped=%d, want true/4/0",
			res.Changed, res.WindowEvents, res.Dropped)
	}
	v3, _ := m.Verdict(ctx, id)
	if !v3.Refused || builds.Load() != 2 || v3.Nodes != 4 {
		t.Fatalf("after duplicate batch: refused=%v builds=%d nodes=%d, want true/2/4",
			v3.Refused, builds.Load(), v3.Nodes)
	}

	// A genuinely new event changes the window → one more refusion.
	m.Ingest(id, []eventlog.Event{ev(3, "c")})
	v4, _ := m.Verdict(ctx, id)
	if !v4.Refused || builds.Load() != 3 {
		t.Fatalf("changed window: refused=%v builds=%d, want true/3", v4.Refused, builds.Load())
	}
}

func TestStreamStaleBatchNoRefusion(t *testing.T) {
	m, eng, builds := testManager(t, Options{MaxWindowAge: 10})
	eng.publish(1)
	id, _ := m.Create(testRules())
	m.Ingest(id, []eventlog.Event{ev(100, "new")})
	if _, err := m.Verdict(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	before := builds.Load()

	// Events older than the age cutoff never enter the window → no change,
	// no refusion on the next read.
	res, err := m.Ingest(id, []eventlog.Event{ev(1, "stale"), ev(2, "stale2")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed || res.WindowEvents != 1 || res.Dropped != 2 {
		t.Fatalf("stale batch: changed=%v window=%d dropped=%d, want false/1/2",
			res.Changed, res.WindowEvents, res.Dropped)
	}
	v, _ := m.Verdict(context.Background(), id)
	if v.Refused || builds.Load() != before {
		t.Fatalf("stale batch triggered refusion (builds %d→%d)", before, builds.Load())
	}
}

func TestStreamRescoreOnRepublish(t *testing.T) {
	m, eng, builds := testManager(t, Options{})
	eng.publish(1)
	id, _ := m.Create(testRules())
	m.Ingest(id, []eventlog.Event{ev(1, "a")})
	ctx := context.Background()
	v1, err := m.Verdict(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v1.SnapshotSeq != 1 {
		t.Fatalf("seq = %d, want 1", v1.SnapshotSeq)
	}

	// A republish re-scores the cached graph without re-fusing it.
	eng.publish(2)
	v2, err := m.Verdict(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Refused || !v2.Rescored {
		t.Fatalf("post-republish: refused=%v rescored=%v, want false/true", v2.Refused, v2.Rescored)
	}
	if v2.SnapshotSeq != 2 || builds.Load() != 1 {
		t.Fatalf("seq=%d builds=%d, want 2/1", v2.SnapshotSeq, builds.Load())
	}
}

func TestStreamEmptyWindowVerdict(t *testing.T) {
	m, eng, _ := testManager(t, Options{})
	id, _ := m.Create(testRules())
	ctx := context.Background()

	// Nothing published yet → not_ready.
	if _, err := m.Verdict(ctx, id); !errors.Is(err, serve.ErrNotReady) {
		t.Fatalf("pre-publish empty window: err = %v, want ErrNotReady", err)
	}

	// Published: an empty window is vacuously clean, not an error.
	eng.publish(1)
	v, err := m.Verdict(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Verdict.Vulnerable || v.Verdict.Score != 0 || v.Nodes != 0 {
		t.Fatalf("empty window verdict = %+v, want zero", v)
	}
	if eng.detectCount() != 0 {
		t.Fatal("empty graph must not reach the engine")
	}
}

func TestStreamMaxSessions(t *testing.T) {
	m, _, _ := testManager(t, Options{MaxSessions: 2})
	if _, err := m.Create(testRules()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testRules()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testRules()); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("third create: err = %v, want ErrOverloaded", err)
	}
	// Deleting one frees a slot.
	if err := m.Delete("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testRules()); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

func TestStreamDelete(t *testing.T) {
	m, _, _ := testManager(t, Options{})
	id, _ := m.Create(testRules())
	if err := m.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(id); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("double delete: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Ingest(id, []eventlog.Event{ev(1, "a")}); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("ingest after delete: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Verdict(context.Background(), id); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("verdict after delete: err = %v, want ErrNotFound", err)
	}
}

func TestStreamIdleEviction(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	m, _, _ := testManager(t, Options{
		IdleTimeout: time.Minute, // the janitor's 15 s ticker never fires; sweeps are manual
		now:         clock,
	})
	idle, _ := m.Create(testRules())
	active, _ := m.Create(testRules())

	mu.Lock()
	now = now.Add(50 * time.Second)
	mu.Unlock()
	if _, err := m.Ingest(active, []eventlog.Event{ev(1, "a")}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	now = now.Add(30 * time.Second) // idle is now 80s stale, active 30s
	mu.Unlock()
	if n := m.sweep(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if _, err := m.Verdict(context.Background(), idle); !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("evicted session: err = %v, want ErrNotFound", err)
	}
	if m.Sessions() != 1 {
		t.Fatalf("sessions = %d, want 1", m.Sessions())
	}
	_ = active
}

func TestStreamConcurrentSessions(t *testing.T) {
	m, eng, _ := testManager(t, Options{})
	eng.publish(1)
	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id, err := m.Create(testRules())
			if err != nil {
				t.Error(err)
				return
			}
			for k := 0; k < 20; k++ {
				if _, err := m.Ingest(id, []eventlog.Event{ev(int64(k), "d")}); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Verdict(context.Background(), id); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
