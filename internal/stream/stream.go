// Package stream turns the online detection phase into a first-class
// streaming service: stateful per-home sessions that continuously fuse a
// sliding window of device events into an online interaction graph and keep
// a rolling vulnerability verdict current against the live model snapshot.
//
// A Session is created with a deployed-rules set and fed event batches.
// The window is bounded twice over — by event count and by event-time age —
// so a session's memory and refusion cost are O(window), not O(stream).
// Fusion is incremental in the sense that matters: the graph is re-fused
// only when the window actually changed (a batch of events that have all
// aged out is a no-op; a batch sent twice is NOT — ingest does not dedupe,
// the window holds both copies and re-fuses), node features come from the
// builder's seeded-hash embedding cache so unchanged rule text is never
// re-embedded, and a cached verdict is re-scored only when the serving
// engine publishes a new snapshot. Verdicts therefore track live
// republishes for free: the first read after a publish re-runs detection on
// the existing graph against the new snapshot.
//
// Sessions are bounded globally (MaxSessions; creation beyond it sheds with
// serve.ErrOverloaded, riding the same backpressure path as the inference
// queue) and individually (window caps), and a supervised janitor evicts
// sessions idle past IdleTimeout.
package stream

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"fexiot/internal/eventlog"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
	"fexiot/internal/serve"
	"fexiot/internal/supervise"
)

// Engine is the slice of serve.Engine a session needs: snapshot-isolated
// detection plus the live snapshot's identity. *serve.Engine satisfies it;
// tests substitute stubs. Going through the engine means rolling verdicts
// inherit its per-worker inference workspaces (DESIGN.md §4.13): a
// session's re-scores run on recycled tape memory, not fresh graphs.
type Engine interface {
	Detect(ctx context.Context, g *graph.Graph) (serve.Verdict, uint64, error)
	SnapshotSeq() (uint64, bool)
}

// Options tunes the session manager. The zero value is usable.
type Options struct {
	// MaxSessions bounds live sessions (0 = 256). Creation beyond the
	// bound fails with serve.ErrOverloaded — callers back off exactly as
	// they do for a saturated inference queue.
	MaxSessions int
	// MaxWindowEvents bounds each session's sliding window by count
	// (0 = 4096); the oldest events fall off first.
	MaxWindowEvents int
	// MaxWindowAge bounds the window by event-time age in simulated
	// seconds (0 = 3600): an event older than the newest event minus
	// MaxWindowAge leaves the window. Event time, not wall time, so
	// replayed and accelerated streams behave identically.
	MaxWindowAge int64
	// IdleTimeout evicts sessions with no ingest or read for this long
	// (0 = 10m). The eviction sweep runs every min(15s, IdleTimeout/4).
	IdleTimeout time.Duration
	// MaxBodyBytes bounds HTTP request bodies on the mounted endpoints
	// (0 = 1 MiB).
	MaxBodyBytes int64
	// Metrics, when non-nil, receives the fexiot_stream_* telemetry.
	Metrics *obs.Registry
	// CacheStats, when non-nil, reports the shared graph builder's
	// node-feature cache counters; the manager exports them as
	// fexiot_stream_feature_cache_{hits,misses}_total.
	CacheStats func() fusion.FeatureCacheStats
	// now is the test seam for the idle clock (nil = time.Now).
	now func() time.Time
}

func (o Options) maxSessions() int {
	if o.MaxSessions > 0 {
		return o.MaxSessions
	}
	return 256
}

func (o Options) maxWindowEvents() int {
	if o.MaxWindowEvents > 0 {
		return o.MaxWindowEvents
	}
	return 4096
}

func (o Options) maxWindowAge() int64 {
	if o.MaxWindowAge > 0 {
		return o.MaxWindowAge
	}
	return 3600
}

func (o Options) idleTimeout() time.Duration {
	if o.IdleTimeout > 0 {
		return o.IdleTimeout
	}
	return 10 * time.Minute
}

// janitorInterval is the eviction sweep cadence: a session outlives its
// idle timeout by at most a quarter of it, and by at most 15 s. The 1 ms
// floor keeps a nanosecond timeout from handing NewTicker a zero.
func (o Options) janitorInterval() time.Duration {
	return min(15*time.Second, max(o.idleTimeout()/4, time.Millisecond))
}

func (o Options) maxBodyBytes() int64 {
	if o.MaxBodyBytes > 0 {
		return o.MaxBodyBytes
	}
	return 1 << 20
}

// session is one home's streaming state. All mutable fields are guarded by
// mu; holding mu across fusion and detection serialises work per session
// while leaving other sessions fully concurrent.
type session struct {
	id    string
	rules []*rules.Rule

	mu          sync.Mutex
	closed      bool
	window      []eventlog.Event // sorted by time; a slice of buf
	buf         []eventlog.Event // the window's backing array, reused across ingests
	maxTime     int64            // newest event time seen (window age anchor)
	dirty       bool             // window changed since the graph was last fused
	graph       *graph.Graph
	verdict     serve.Verdict
	verdictSeq  uint64
	haveVerdict bool
	refusions   int64
	eventsTotal int64
	dropped     int64
	created     time.Time
	lastActive  time.Time
	lastIngest  time.Time // wall time of the newest ingested batch
}

// Manager owns the session table, the shared fusion/detection dependencies
// and the supervised idle janitor. All methods are safe for concurrent use.
type Manager struct {
	opts  Options
	build serve.GraphBuilder
	eng   Engine
	m     metrics

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64

	// cacheMu guards the last-seen builder cache counters used to export
	// deltas (the builder is shared with the batch endpoints, so the
	// stream metrics only claim growth observed across refusions).
	cacheMu    sync.Mutex
	lastHits   int64
	lastMisses int64

	sup    *supervise.Supervisor
	cancel context.CancelFunc
	once   sync.Once
}

// NewManager starts a session manager over the given inference engine and
// graph builder (the facade passes System.BuildOnlineGraph). The idle
// janitor runs supervised until Shutdown.
func NewManager(eng Engine, build serve.GraphBuilder, opts Options) *Manager {
	m := &Manager{
		opts:     opts,
		build:    build,
		eng:      eng,
		m:        newMetrics(opts.Metrics),
		sessions: map[string]*session{},
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	m.sup = supervise.New(supervise.Options{Metrics: opts.Metrics})
	m.sup.Go(ctx, "stream-janitor", m.janitor)
	return m
}

// Shutdown stops the janitor and closes every session. Idempotent.
func (m *Manager) Shutdown() {
	m.once.Do(func() {
		m.cancel()
		m.sup.Wait()
		m.mu.Lock()
		for id, s := range m.sessions {
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			delete(m.sessions, id)
		}
		m.m.sessions.Set(0)
		m.mu.Unlock()
	})
}

// Sessions reports the live session count.
func (m *Manager) Sessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

func (m *Manager) now() time.Time {
	if m.opts.now != nil {
		return m.opts.now()
	}
	return time.Now()
}

// Create opens a session over a deployed-rules set and returns its id.
// A full session table sheds with serve.ErrOverloaded.
func (m *Manager) Create(rs []*rules.Rule) (string, error) {
	if err := serve.ValidateRules(rs); err != nil {
		return "", err
	}
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.sessions) >= m.opts.maxSessions() {
		m.m.refused.Inc()
		return "", fmt.Errorf("%w: session table full (%d sessions, max %d)",
			serve.ErrOverloaded, len(m.sessions), m.opts.maxSessions())
	}
	m.nextID++
	id := fmt.Sprintf("s%d", m.nextID)
	m.sessions[id] = &session{
		id:         id,
		rules:      rs,
		created:    now,
		lastActive: now,
	}
	m.m.created.Inc()
	m.m.sessions.Set(float64(len(m.sessions)))
	return id, nil
}

// get resolves a session id; unknown and evicted ids fail identically with
// serve.ErrNotFound.
func (m *Manager) get(id string) (*session, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: no stream session %q", serve.ErrNotFound, id)
	}
	return s, nil
}

// IngestResult reports one event batch's effect on the window.
type IngestResult struct {
	Ingested     int   `json:"ingested"`
	Dropped      int   `json:"dropped"`
	WindowEvents int   `json:"window_events"`
	WindowSpan   int64 `json:"window_span_seconds"`
	Changed      bool  `json:"window_changed"`
}

// Ingest merges an event batch into the session's sliding window, applying
// the age bound then the count bound, and marks the session dirty only when
// the surviving window actually differs: a batch whose events have all aged
// out never triggers a refusion. Ingest does not dedupe — an event sent
// twice is in the window twice, so a retried batch changes the window (the
// graph it fuses into has the same nodes and edges: fusion asks whether
// events exist, not how many).
func (m *Manager) Ingest(id string, evs []eventlog.Event) (IngestResult, error) {
	s, err := m.get(id)
	if err != nil {
		return IngestResult{}, err
	}
	now := m.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return IngestResult{}, fmt.Errorf("%w: stream session %q is closed", serve.ErrNotFound, id)
	}
	s.lastActive = now
	s.eventsTotal += int64(len(evs))
	m.m.events.Add(int64(len(evs)))
	if len(evs) > 0 {
		s.lastIngest = now
	}

	was := len(s.window)
	changed := s.merge(evs, m.opts.maxWindowAge(), m.opts.maxWindowEvents())
	w := s.window
	res := IngestResult{
		Ingested:     len(evs),
		Dropped:      was + len(evs) - len(w),
		WindowEvents: len(w),
		Changed:      changed,
	}
	if len(w) > 0 {
		res.WindowSpan = w[len(w)-1].Time - w[0].Time
	}
	s.dropped += int64(res.Dropped)
	if changed {
		s.dirty = true
	}
	return res, nil
}

func byTime(a, b eventlog.Event) int { return cmp.Compare(a.Time, b.Time) }

// merge folds a batch into the sorted window and applies the age bound then
// the count bound, reporting whether the window differs from what it was.
// The result is what stable-sorting window‖batch by time and trimming would
// give — at equal times the window's events stay ahead of the batch's — but
// costs the batch plus the window events it displaces, not the window, and
// after a session's first few batches allocates nothing: the window lives
// in one buffer (see reserve). The caller's slice is left as it was.
func (s *session) merge(evs []eventlog.Event, maxAge int64, maxEvents int) (changed bool) {
	batch := evs
	if !slices.IsSortedFunc(batch, byTime) {
		batch = slices.Clone(evs)
		slices.SortStableFunc(batch, byTime)
	}
	if n := len(batch); n > 0 && batch[n-1].Time > s.maxTime {
		s.maxTime = batch[n-1].Time
	}
	// Age bound: an event older than the newest minus MaxWindowAge is out
	// of scope (event time, so replays behave identically to live streams).
	cutoff := s.maxTime - maxAge
	atCutoff := func(e eventlog.Event, t int64) int { return cmp.Compare(e.Time, t) }

	// Batch events neither bound can keep never enter the window: the
	// stale ones, and all but the newest maxEvents.
	stale, _ := slices.BinarySearchFunc(batch, cutoff, atCutoff)
	batch = batch[stale:]
	if over := len(batch) - maxEvents; over > 0 {
		batch = batch[over:]
	}

	old := s.window
	aged, _ := slices.BinarySearchFunc(old, cutoff, atCutoff)
	drop := aged // how many events fall off the front of the merged window
	if over := len(old) - aged + len(batch) - maxEvents; over > 0 {
		drop += over // count bound: keep the most recent MaxWindowEvents
	}
	switch {
	case len(batch) == 0:
		changed = drop > 0
	case drop != len(batch):
		changed = true
	default:
		changed = !mergedTailIs(old, batch)
	}

	// Merge from the back, into the room reserve left behind the window;
	// only the window events newer than the batch's oldest move.
	w := s.reserve(len(batch))
	i, k := len(w)-1, len(w)+len(batch)-1
	w = w[:k+1]
	for j := len(batch) - 1; j >= 0; k-- {
		if i >= 0 && w[i].Time > batch[j].Time {
			w[k] = w[i]
			i--
		} else {
			w[k] = batch[j]
			j--
		}
	}
	s.window = w[drop:]
	return changed
}

// mergedTailIs reports whether merging batch into old and dropping as many
// events off the front as the batch added leaves exactly old — possible
// only when events repeat (a duplicate of a full window's oldest event
// pushes its twin out). It walks the merge without building it and stops
// at the first difference, normally the first event kept.
func mergedTailIs(old, batch []eventlog.Event) bool {
	i, j := 0, 0
	for k := 0; k < len(old)+len(batch); k++ {
		var e *eventlog.Event
		if j == len(batch) || i < len(old) && old[i].Time <= batch[j].Time {
			e, i = &old[i], i+1
		} else {
			e, j = &batch[j], j+1
		}
		if k >= len(batch) && *e != old[k-len(batch)] {
			return false
		}
	}
	return true
}

// reserve returns the window with room for n more events behind it. When
// the room runs out the window slides back to the front of its buffer —
// first moving to a buffer a quarter larger than it needs when that one is
// too small — so a session in steady state reuses one array.
func (s *session) reserve(n int) []eventlog.Event {
	if cap(s.window)-len(s.window) >= n {
		return s.window
	}
	if need := len(s.window) + n; need > len(s.buf) {
		s.buf = make([]eventlog.Event, need+need/4)
	}
	s.window = s.buf[:copy(s.buf, s.window)]
	return s.window
}

// VerdictResult is a session's rolling verdict plus its provenance.
type VerdictResult struct {
	Verdict      serve.Verdict
	SnapshotSeq  uint64
	Nodes        int
	WindowEvents int
	WindowSpan   int64
	Refusions    int64
	EventsTotal  int64
	DroppedTotal int64
	Refused      bool // this read re-fused the graph
	Rescored     bool // this read re-ran detection
}

// Verdict returns the session's rolling verdict, doing the minimum work to
// keep it current: the graph is re-fused only when the window changed since
// the last fusion, and detection re-runs only after a refusion or when the
// engine has published a newer snapshot than the cached verdict was scored
// on. An unchanged window on an unchanged snapshot is a pure cache read.
func (m *Manager) Verdict(ctx context.Context, id string) (VerdictResult, error) {
	s, err := m.get(id)
	if err != nil {
		return VerdictResult{}, err
	}
	now := m.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return VerdictResult{}, fmt.Errorf("%w: stream session %q is closed", serve.ErrNotFound, id)
	}
	s.lastActive = now

	res := VerdictResult{
		WindowEvents: len(s.window),
		EventsTotal:  s.eventsTotal,
		DroppedTotal: s.dropped,
	}
	if len(s.window) > 0 {
		res.WindowSpan = s.window[len(s.window)-1].Time - s.window[0].Time
	}

	if s.dirty || s.graph == nil {
		// The live window goes in uncopied: Ingest rewrites it in place, but
		// only under s.mu, which is held here until the build returns, and
		// a GraphBuilder neither mutates nor retains its log.
		g, err := m.build(s.rules, s.window)
		if err != nil {
			return VerdictResult{}, fmt.Errorf("%w: fusing window: %v", serve.ErrBadRequest, err)
		}
		s.graph = g
		s.dirty = false
		s.refusions++
		s.haveVerdict = false
		res.Refused = true
		m.m.refusions.Inc()
		m.syncCacheStats()
		if !s.lastIngest.IsZero() {
			m.m.verdictLag.Observe(time.Since(s.lastIngest).Seconds())
		}
	}
	res.Refusions = s.refusions
	res.Nodes = s.graph.N()

	curSeq, published := m.eng.SnapshotSeq()
	if s.haveVerdict && !published {
		// Unreachable in practice (snapshots are never unpublished), but
		// fall through to a fresh Detect which will report not-ready.
		s.haveVerdict = false
	}
	if !s.haveVerdict || s.verdictSeq != curSeq {
		if s.graph.N() == 0 {
			// An empty window (or one in which no deployed rule was active)
			// fuses into an empty graph: the rolling verdict is vacuously
			// clean rather than an inference error.
			if !published {
				return VerdictResult{}, serve.ErrNotReady
			}
			s.verdict = serve.Verdict{}
			s.verdictSeq = curSeq
		} else {
			v, seq, err := m.eng.Detect(ctx, s.graph)
			if err != nil {
				return VerdictResult{}, err
			}
			s.verdict = v
			s.verdictSeq = seq
		}
		s.haveVerdict = true
		res.Rescored = true
	}
	res.Verdict = s.verdict
	res.SnapshotSeq = s.verdictSeq
	return res, nil
}

// Delete closes a session. Unknown ids fail with serve.ErrNotFound.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.m.sessions.Set(float64(len(m.sessions)))
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: no stream session %q", serve.ErrNotFound, id)
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// janitor is the supervised idle-eviction loop.
func (m *Manager) janitor(ctx context.Context) error {
	t := time.NewTicker(m.opts.janitorInterval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			m.sweep()
		}
	}
}

// sweep evicts sessions idle past IdleTimeout and returns how many fell.
func (m *Manager) sweep() int {
	now := m.now()
	cutoff := now.Add(-m.opts.idleTimeout())
	var victims []*session
	m.mu.Lock()
	for id, s := range m.sessions {
		s.mu.Lock()
		idle := s.lastActive.Before(cutoff)
		s.mu.Unlock()
		if idle {
			victims = append(victims, s)
			delete(m.sessions, id)
		}
	}
	m.m.sessions.Set(float64(len(m.sessions)))
	m.mu.Unlock()
	for _, s := range victims {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		m.m.evictions.Inc()
	}
	return len(victims)
}

// syncCacheStats re-exports the shared builder's node-feature cache
// counters as stream metrics (counters only move forward, so Add of the
// delta is exact).
func (m *Manager) syncCacheStats() {
	if m.opts.CacheStats == nil {
		return
	}
	st := m.opts.CacheStats()
	m.cacheMu.Lock()
	dh, dm := st.Hits-m.lastHits, st.Misses-m.lastMisses
	m.lastHits, m.lastMisses = st.Hits, st.Misses
	m.cacheMu.Unlock()
	m.m.cacheHits.Add(dh)
	m.m.cacheMisses.Add(dm)
}
