package fedproto

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fexiot/internal/fed"
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/obs"
	"fexiot/internal/supervise"
)

// DefaultRoundTimeout bounds each per-client read and write when
// ServerConfig.RoundTimeout is left zero. One hung or half-closed client
// must not deadlock the whole federation forever.
const DefaultRoundTimeout = 2 * time.Minute

// DefaultQuorum is the fraction of admitted clients whose valid updates
// must arrive before a round closes (ServerConfig.Quorum zero value).
const DefaultQuorum = 2.0 / 3

// DefaultMaxStrikes is the number of consecutive missed rounds after which
// a silent client is evicted (ServerConfig.MaxStrikes zero value).
const DefaultMaxStrikes = 3

// Named protocol errors. All are produced by remote input, never a panic:
// a malformed or non-finite update evicts its sender, and a round that
// closes below quorum fails the federation with ErrQuorumLost wrapping
// every per-client cause.
var (
	ErrMalformedUpdate = errors.New("fedproto: malformed update")
	// ErrNonFiniteUpdate rejects updates carrying NaN or ±Inf weights — a
	// numerically diverged or NaN-injecting client must never reach the
	// aggregator, where a single poisoned coordinate would turn the global
	// mean non-finite for the whole federation.
	ErrNonFiniteUpdate = errors.New("fedproto: non-finite update")
	ErrQuorumLost      = errors.New("fedproto: quorum lost")
)

// ServerConfig controls the networked aggregation server.
type ServerConfig struct {
	Addr      string
	Clients   int // clients to wait for before round 0
	Rounds    int
	Eps1      float64 // Eq. (3) gate, relative interpretation
	Eps2      float64
	NumLayers int
	// RoundTimeout is the per-client read/write deadline applied to every
	// protocol exchange (hello, per-round update receive, model send).
	// Zero or less selects DefaultRoundTimeout.
	RoundTimeout time.Duration
	// Quorum is the fraction of the round's admitted clients whose valid
	// updates must arrive before the deadline for the round to close; the
	// survivors aggregate without the missing members. Zero selects
	// DefaultQuorum; values above 1 clamp to 1 (every client required).
	Quorum float64
	// MaxStrikes evicts a client after this many consecutive missed
	// rounds. Zero or less selects DefaultMaxStrikes.
	MaxStrikes int
	// Aggregator combines the responders' layer weights each round. Nil
	// selects the FedAvg quorum-weighted mean (the historical behaviour);
	// the robust alternatives from internal/fed (trimmed mean, median,
	// norm-clipped mean, Krum) bound a Byzantine client's influence.
	Aggregator fed.Aggregator
	// Codec is the update scheme the server assigns every session in its
	// sync reply ("raw64", "q8", "topk"). Empty selects raw64: dense
	// updates, 8 bytes a parameter on the wire.
	Codec string
	// CheckpointPath, when set, makes the server durable: every
	// CheckpointEvery closed rounds it gob-snapshots the round number,
	// pinned shapes, global model, per-client strike state and stats to
	// this path (atomically, via rename), and a restarted server resumes
	// the federation from the latest snapshot instead of round 0.
	CheckpointPath string
	// CheckpointEvery is the snapshot cadence in closed rounds; zero
	// selects 1 (snapshot after every round).
	CheckpointEvery int
	// Metrics, when non-nil, receives server telemetry: round durations and
	// responder counts, eviction/rejoin/strike totals, wire bytes in both
	// directions, checkpoint and aggregation latency. Nil keeps every
	// instrumentation point on the zero-overhead path.
	Metrics *obs.Registry
	// OnRoundComplete, when non-nil, is invoked after each round's
	// aggregation with the closed round number and the whole-federation
	// global mean — the publish hook serving engines use to swap in a
	// fresh snapshot without polling. The server retains the slice as its
	// resume state, so the callback must treat it as read-only (copy
	// before mutating). It runs synchronously on the round loop (off the
	// server mutex), so slow consumers should hand the payload to their
	// own goroutine.
	OnRoundComplete func(round int, global []LayerPayload)
}

// withDefaults resolves every zero-value convention documented on
// ServerConfig, once, so the round loop reads plain fields.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = DefaultRoundTimeout
	}
	switch {
	case c.Quorum <= 0:
		c.Quorum = DefaultQuorum
	case c.Quorum > 1:
		c.Quorum = 1
	}
	if c.MaxStrikes <= 0 {
		c.MaxStrikes = DefaultMaxStrikes
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.Aggregator == nil {
		c.Aggregator = fed.MeanAgg{}
	}
	return c
}

// quorumCount is the number of updates required out of n admitted clients
// (frac ≤ 1): at least one, so a round nobody is left to answer — every
// client dropped while the previous replies went out — loses quorum
// instead of aggregating nothing.
func quorumCount(frac float64, n int) int {
	need := int(math.Ceil(frac*float64(n) - 1e-9))
	if need < 1 {
		need = 1
	}
	return need
}

// clientState is the server's view of one (possibly reconnecting)
// federation member, keyed by the ClientID it announced in MsgHello. Its
// conn is the member's current session; base is the last model sent on
// that session, stamped baseSeq (0 before any model): a delta update
// decodes against it, and every update's ΔW — what the Eq. (3) gate
// reads — is measured against it. Guarded by Server.mu, except bufs.
type clientState struct {
	id      int
	conn    *Conn
	size    int // |G_c| for FedAvg weighting
	strikes int // consecutive missed rounds
	alive   bool
	base    []LayerPayload
	baseSeq uint64
	// bufs hold the member's reconstructed weights and ΔW of the round
	// being collected. Only that round's collection goroutine for the
	// member writes them, and only the round's aggregation reads them.
	bufs struct{ weights, update []float64 }
}

// ServerStats summarises a federation run for logs and tests.
type ServerStats struct {
	RoundsCompleted int
	Evicted         int
	Rejoined        int
	// Responders records how many clients contributed to each closed round.
	Responders []int
}

// Server aggregates client models over TCP using the layer-wise clustering
// of Algorithm 1. Rounds are quorum-based: the round closes with whichever
// clients delivered a valid update before the deadline, provided they are
// at least Quorum of the admitted population; clients that stay silent for
// MaxStrikes consecutive rounds are evicted, and clients that reconnect
// are re-admitted by replaying the current aggregated model along with the
// round number to resume at.
type Server struct {
	cfg     ServerConfig
	metrics serverMetrics
	// sup restarts the accept loop on transient Accept errors; its tripped
	// circuit surfaces through Healthy (and from there /healthz).
	sup *supervise.Supervisor
	// listening is true between Listen succeeding and Run returning — the
	// readiness signal behind Ready (/readyz).
	listening atomic.Bool

	mu        sync.Mutex
	cond      *sync.Cond
	clients   []*clientState
	round     int            // round currently being collected
	global    []LayerPayload // last closed round's whole-federation mean
	shapes    [][][2]int     // per layer per tensor, pinned by the first valid update
	names     [][]string
	retired   int64 // byte tally of replaced or closed connections
	acceptErr error
	closed    bool
	stats     ServerStats
	// seq stamps every model snapshot sent to a client (server-unique,
	// monotonic, 0 = "no stamp") so delta updates can name their base.
	seq uint64
	// startRound is where Run's round loop begins — nonzero after a
	// checkpoint restore.
	startRound int
	// restoredStrikes carries per-client strike state across a restart:
	// consumed by the first hello of each rejoining client id.
	restoredStrikes map[int]int
}

// NewServer creates a server.
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, metrics: newServerMetrics(cfg.Metrics, cfg.Aggregator)}
	s.cond = sync.NewCond(&s.mu)
	s.sup = supervise.New(supervise.Options{
		Policy:  supervise.Policy{MaxRestarts: 5, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Seed: 7},
		Metrics: cfg.Metrics,
		// A tripped accept circuit must fail the federation the way a fatal
		// Accept error always has: park the error where Run's wait loop and
		// Healthy look.
		OnTrip: func(_ string, cause error) {
			s.mu.Lock()
			s.acceptErr = cause
			s.cond.Broadcast()
			s.mu.Unlock()
		},
	})
	return s
}

// Healthy reports the server's liveness: nil while the supervised accept
// loop is within its restart budget, the tripped circuit's cause once
// admissions have permanently failed. Wire it to /healthz.
func (s *Server) Healthy() error {
	if err := s.sup.Check(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acceptErr
}

// Ready reports whether the server is accepting connections — true between
// the listener coming up and Run returning. Wire it to /readyz.
func (s *Server) Ready() error {
	if !s.listening.Load() {
		return errors.New("fedproto: not listening")
	}
	return nil
}

// Stats returns a snapshot of the run's fault-tolerance counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Responders = append([]int(nil), s.stats.Responders...)
	return st
}

// Run listens, waits for the configured number of clients, coordinates the
// rounds and returns total transferred bytes (both directions, all
// clients). It keeps accepting connections for the whole run so evicted or
// crashed clients can rejoin mid-federation.
//
// Cancelling ctx is the graceful shutdown path: the server stops as if
// Stop had been called, flushes one final checkpoint of the last closed
// round (when checkpointing is configured) so a restarted server resumes
// exactly where cancellation caught this one, and returns an error
// wrapping context.Cause(ctx).
func (s *Server) Run(ctx context.Context) (int64, error) {
	if _, err := codec.New(s.cfg.Codec); err != nil {
		return 0, err
	}
	if err := s.restoreCheckpoint(); err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	s.listening.Store(true)
	defer s.listening.Store(false)
	// Every return path releases every accepted socket: failed rounds must
	// not leak fds.
	defer s.closeAll()

	stop := context.AfterFunc(ctx, s.Stop)
	defer stop()

	// The accept loop runs supervised: a transient Accept error (fd
	// pressure, a scribbling middlebox) restarts it with backoff instead of
	// bricking admissions for the rest of the federation; only a persistent
	// failure trips the circuit and fails Run.
	s.sup.Go(ctx, "fedproto-accept", func(context.Context) error {
		return s.acceptPass(ln)
	})

	s.mu.Lock()
	for s.aliveCount() < s.cfg.Clients && s.acceptErr == nil && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		start := s.startRound
		s.mu.Unlock()
		if ctx.Err() != nil {
			return s.totalBytes(), s.cancelled(ctx, start)
		}
		return s.totalBytes(), fmt.Errorf("fedproto: server stopped before round %d", start)
	}
	if err := s.acceptErr; err != nil && s.aliveCount() < s.cfg.Clients {
		s.mu.Unlock()
		return s.totalBytes(), fmt.Errorf("fedproto: accept: %w", err)
	}
	start := s.startRound
	s.mu.Unlock()

	for round := start; round < s.cfg.Rounds; round++ {
		if err := s.runRound(round); err != nil {
			if ctx.Err() != nil {
				// The round died because cancellation tore the sockets down,
				// not because the federation failed: report the shutdown,
				// with state durable as of the last closed round.
				return s.totalBytes(), s.cancelled(ctx, round)
			}
			return s.totalBytes(), err
		}
	}
	return s.totalBytes(), nil
}

// ckptRetry writes the checkpoint under a bounded retry: a flaky disk gets
// a few backed-off attempts (and a panicking write is converted to an
// error) before the failure propagates to the round.
func (s *Server) ckptRetry(nextRound int) error {
	return supervise.Retry(context.Background(),
		supervise.Policy{MaxRestarts: 3, Backoff: 5 * time.Millisecond,
			MaxBackoff: 50 * time.Millisecond, Seed: int64(nextRound)},
		func() error { return s.saveCheckpoint(nextRound) })
}

// cancelled flushes the shutdown checkpoint (rounds [0, nextRound) have
// closed) and builds Run's cancellation error.
func (s *Server) cancelled(ctx context.Context, nextRound int) error {
	if s.cfg.CheckpointPath != "" {
		if err := s.ckptRetry(nextRound); err != nil {
			return fmt.Errorf("fedproto: shutdown checkpoint: %w (after %w)",
				err, context.Cause(ctx))
		}
	}
	return fmt.Errorf("fedproto: server stopped before round %d: %w",
		nextRound, context.Cause(ctx))
}

// Stop crashes the server mid-federation: every socket is torn down and no
// further admissions are accepted, so Run fails its in-flight round and
// returns. With checkpointing enabled, a fresh Server on the same
// CheckpointPath resumes where the last snapshot left off — Stop is the
// kill switch the crash-recovery tests (and operators' SIGTERM handlers)
// exercise.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, st := range s.clients {
		if st.conn != nil {
			st.conn.Close()
		}
	}
	s.cond.Broadcast()
}

// acceptPass admits clients for the lifetime of the listener, including
// late joiners and rejoining evictees. It returns nil on orderly shutdown
// (listener closed by Stop/closeAll) and the Accept error otherwise, which
// the supervisor answers with a backed-off restart. A panic in one
// admission handshake closes that socket without taking the loop down.
func (s *Server) acceptPass(ln net.Listener) error {
	for {
		raw, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.isClosed() {
				return nil
			}
			return err
		}
		go func() {
			if perr := supervise.Run(context.Background(), func(context.Context) error {
				s.admit(raw)
				return nil
			}); perr != nil {
				raw.Close()
			}
		}()
	}
}

// isClosed reports whether Stop or closeAll has run.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// admit completes the hello handshake on one accepted socket, registers
// (or re-registers) the client, and replays the current aggregated model
// so a rejoiner resumes at the server's round instead of desyncing.
func (s *Server) admit(raw net.Conn) {
	c := Wrap(raw, s.cfg.RoundTimeout)
	c.Instrument(s.metrics.bytesIn, s.metrics.bytesOut)
	hello, err := c.Recv()
	// A negative |G_c| would turn into a negative FedAvg weight: the
	// member's model would be subtracted from the mean.
	if err != nil || hello.Kind != MsgHello || hello.DataSize < 0 {
		raw.Close()
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		raw.Close()
		return
	}
	st := s.findClient(hello.ClientID)
	if st == nil {
		st = &clientState{id: hello.ClientID}
		s.clients = append(s.clients, st)
	} else {
		// Reconnect: retire the stale socket but keep its byte tally.
		if st.conn != nil {
			in, out := st.conn.Bytes()
			s.retired += in + out
			st.conn.Close()
		}
		s.stats.Rejoined++
		s.metrics.rejoined.Inc()
	}
	st.conn, st.size, st.strikes, st.alive = c, hello.DataSize, 0, true
	s.metrics.live.Set(float64(s.aliveCount()))
	// A client re-admitted after a server restart inherits the strike
	// state the checkpoint recorded for it (consumed once; later
	// reconnects reset to zero as usual, having proven liveness).
	if n, ok := s.restoredStrikes[hello.ClientID]; ok {
		st.strikes = n
		delete(s.restoredStrikes, hello.ClientID)
	}
	// Sync reply: the round to resume at plus the current aggregated
	// model (nil before the first round closes — fresh joiners start from
	// their own initialisation like the in-process simulator). A server
	// resumed past its final round tells the client the federation is
	// already over. The reply also assigns the session's update codec and,
	// when a model ships, stamps it as the new session's base.
	syncMsg := &Message{Kind: MsgModel, Round: s.round, Layers: s.global,
		Codec: s.cfg.Codec,
		Final: s.cfg.Rounds > 0 && s.round >= s.cfg.Rounds}
	st.base, st.baseSeq = nil, 0
	if len(s.global) > 0 {
		s.seq++
		syncMsg.ModelSeq = s.seq
		st.base, st.baseSeq = s.global, s.seq
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	if err := c.Send(syncMsg); err != nil {
		s.mu.Lock()
		s.dropIfCurrent(st, c)
		s.mu.Unlock()
	}
}

// findClient returns the state registered for id, if any. Caller holds mu.
func (s *Server) findClient(id int) *clientState {
	for _, st := range s.clients {
		if st.id == id {
			return st
		}
	}
	return nil
}

// aliveCount counts admitted, non-evicted clients. Caller holds mu.
func (s *Server) aliveCount() int {
	n := 0
	for _, st := range s.clients {
		if st.alive {
			n++
		}
	}
	return n
}

// dropIfCurrent marks st dead if conn is still its active socket; a state
// that rejoined on a fresh socket in the meantime is left alone. Caller
// holds mu.
func (s *Server) dropIfCurrent(st *clientState, conn *Conn) {
	if st.conn != conn || !st.alive {
		return
	}
	st.alive = false
	s.stats.Evicted++
	s.metrics.evicted.Inc()
	s.metrics.live.Set(float64(s.aliveCount()))
	conn.Close()
}

// recvResult is one client's outcome for a round's collection phase.
type recvResult struct {
	st      *clientState
	conn    *Conn
	layers  []LayerPayload // the validated update, dense
	weights [][]float64    // the same, one flat vector per layer
	update  [][]float64    // ΔW per layer; nil when the client had no base
	err     error
}

// runRound collects one round of updates from every live client, closes
// the round at quorum, aggregates, and replies to the contributors.
func (s *Server) runRound(round int) error {
	sp := obs.StartSpan(s.metrics.roundDur)
	defer sp.End()
	s.mu.Lock()
	s.round = round
	var live []recvResult
	for _, st := range s.clients {
		if st.alive {
			live = append(live, recvResult{st: st, conn: st.conn})
		}
	}
	s.mu.Unlock()
	// Aggregate in client-id order, not admission order: float summation
	// order must not depend on goroutine scheduling, or a resumed federation
	// could drift from an uninterrupted one in the last ulp.
	sort.Slice(live, func(i, j int) bool { return live[i].st.id < live[j].st.id })

	// Collect updates concurrently, each receive bounded by the round
	// deadline so one hung client costs at most the deadline, never the
	// federation. Round numbers on updates are advisory: a client that
	// missed the previous reply resends against a slightly stale model and
	// the authoritative round in our reply resyncs it (bounded staleness
	// instead of a desynced stream).
	var wg sync.WaitGroup
	for i := range live {
		wg.Add(1)
		go func(r *recvResult) {
			defer wg.Done()
			before := r.conn.InBytes()
			m, err := r.conn.Recv()
			if err != nil {
				r.err = err
				return
			}
			wire := r.conn.InBytes() - before
			// Reconstruct dense absolute weights from whatever codec the
			// update declares before any further validation — downstream
			// checks and the aggregator only ever see raw64-shaped data.
			// The base belongs to the session: once the member has rejoined
			// on a fresh conn, this one has none.
			var base []LayerPayload
			var baseSeq uint64
			s.mu.Lock()
			if r.st.conn == r.conn {
				base, baseSeq = r.st.base, r.st.baseSeq
			}
			s.mu.Unlock()
			if err := decodeUpdate(m, base, baseSeq, &r.st.bufs.weights); err != nil {
				r.err = err
				return
			}
			if err := ValidateUpdate(m, s.cfg.NumLayers); err != nil {
				r.err = err
				return
			}
			if err := CheckFiniteUpdate(m); err != nil {
				r.err = err
				return
			}
			if err := s.checkShapes(m); err != nil {
				r.err = err
				return
			}
			r.layers = m.Layers
			r.weights = flatLayers(m.Layers)
			r.update = updateOf(r.weights, base, &r.st.bufs.update)
			scheme := m.Codec
			if scheme == "" {
				scheme = codec.Raw64
			}
			raw := denseBytes(m.Layers)
			s.metrics.updEnc.With(scheme).Add(wire)
			s.metrics.updRaw.Add(raw)
			if wire > 0 {
				s.metrics.ratio.Observe(float64(raw) / float64(wire))
			}
		}(&live[i])
	}
	wg.Wait()

	var responders []*recvResult
	var tmpl []LayerPayload // tensor layout of the round (pinned: any responder's)
	var in fed.RoundInput
	var errs []error
	s.mu.Lock()
	for i := range live {
		r := &live[i]
		if r.err == nil {
			responders = append(responders, r)
			tmpl = r.layers
			in.Weights = append(in.Weights, r.weights)
			in.Updates = append(in.Updates, r.update)
			in.Sizes = append(in.Sizes, r.st.size)
			if r.st.conn == r.conn {
				r.st.strikes = 0
			}
			continue
		}
		errs = append(errs, fmt.Errorf("fedproto: round %d client %d: %w", round, r.st.id, r.err))
		s.metrics.rejected.Inc()
		if r.st.conn != r.conn {
			continue // rejoined on a fresh socket mid-round; stale error
		}
		var nerr net.Error
		if errors.As(r.err, &nerr) && nerr.Timeout() {
			// Silence: strike, evict only after MaxStrikes in a row.
			r.st.strikes++
			s.metrics.strikes.Inc()
			if r.st.strikes >= s.cfg.MaxStrikes {
				s.dropIfCurrent(r.st, r.conn)
			}
		} else {
			// Broken or untrusted stream (EOF, reset, malformed update):
			// a failed read may leave the conn mid-frame, and a peer that
			// sent a malformed frame is not trusted with the next, so
			// evict now and let the client resync by reconnecting.
			s.dropIfCurrent(r.st, r.conn)
		}
	}
	s.mu.Unlock()

	need := quorumCount(s.cfg.Quorum, len(live))
	if len(responders) < need {
		s.metrics.quorumLost.Inc()
		errs = append([]error{fmt.Errorf("fedproto: round %d: %w (%d/%d updates, quorum %d)",
			round, ErrQuorumLost, len(responders), len(live), need)}, errs...)
		return errors.Join(errs...)
	}

	// Algorithm 1 over the responders: the same fed.ClusterRound the
	// in-process simulator runs, gated on the measured ΔW = W − base.
	asp := obs.StartSpan(s.metrics.aggDur)
	out := fed.ClusterRound(in, s.cfg.Eps1, s.cfg.Eps2, s.cfg.Aggregator)
	// The whole-population aggregate of every layer is the model replayed
	// to (re)joining clients, whichever cluster they will land in. Without
	// a split that is what every responder got; after one it is the same
	// core with no ΔW to split on.
	globalVecs := out.Layers[0]
	if len(out.Leaves) > 1 {
		whole := fed.RoundInput{Weights: in.Weights, Sizes: in.Sizes}
		globalVecs = fed.ClusterRound(whole, 0, 0, s.cfg.Aggregator).Layers[0]
	}
	global := unflatten(tmpl, globalVecs)
	replies := make([][]LayerPayload, len(responders))
	for k := range replies {
		replies[k] = unflatten(tmpl, out.Layers[k])
	}
	asp.End()

	s.mu.Lock()
	s.global = global
	s.stats.RoundsCompleted++
	s.stats.Responders = append(s.stats.Responders, len(responders))
	s.mu.Unlock()
	s.metrics.rounds.Inc()
	s.metrics.responders.Set(float64(len(responders)))
	if s.cfg.OnRoundComplete != nil {
		s.cfg.OnRoundComplete(round, global)
	}

	// Durability point: the round is closed and the global model final, so
	// this is the state a restarted server must resume from.
	if s.cfg.CheckpointPath != "" && (round+1)%s.cfg.CheckpointEvery == 0 {
		csp := obs.StartSpan(s.metrics.ckptDur)
		err := s.ckptRetry(round + 1)
		csp.End()
		if err != nil {
			return fmt.Errorf("fedproto: round %d checkpoint: %w", round, err)
		}
	}

	final := round == s.cfg.Rounds-1
	for k, r := range responders {
		msg := &Message{Kind: MsgModel, Round: round, Final: final, Layers: replies[k]}
		// The reply goes on the conn whose update it answers. It becomes
		// that session's base before it is sent — the client cannot echo a
		// stamp it has not received — unless the member has rejoined since:
		// the new session's base is its sync model, and the old conn is
		// closed, so the send fails harmlessly.
		s.mu.Lock()
		s.seq++
		msg.ModelSeq = s.seq
		if r.st.conn == r.conn {
			r.st.base, r.st.baseSeq = replies[k], s.seq
		}
		s.mu.Unlock()
		if err := r.conn.Send(msg); err != nil {
			// A failed reply is that client's problem, not the round's: it
			// will miss the next collection and rejoin through admit.
			s.mu.Lock()
			s.dropIfCurrent(r.st, r.conn)
			s.mu.Unlock()
		}
	}
	return nil
}

// checkShapes pins the federation's tensor layout to the first valid
// update and rejects later updates that disagree — a mismatched payload
// must fail with a named error before it can panic the aggregation.
func (s *Server) checkShapes(m *Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shapes == nil {
		s.shapes = make([][][2]int, len(m.Layers))
		s.names = make([][]string, len(m.Layers))
		for l, pl := range m.Layers {
			s.shapes[l] = append([][2]int(nil), pl.Shapes...)
			s.names[l] = append([]string(nil), pl.Names...)
		}
		return nil
	}
	for l, pl := range m.Layers {
		if len(pl.Names) != len(s.names[l]) {
			return fmt.Errorf("%w: layer %d has %d tensors, federation uses %d",
				ErrMalformedUpdate, l, len(pl.Names), len(s.names[l]))
		}
		for i := range pl.Names {
			if pl.Names[i] != s.names[l][i] || pl.Shapes[i] != s.shapes[l][i] {
				return fmt.Errorf("%w: layer %d tensor %d is %s%v, federation uses %s%v",
					ErrMalformedUpdate, l, i, pl.Names[i], pl.Shapes[i],
					s.names[l][i], s.shapes[l][i])
			}
		}
	}
	return nil
}

// closeAll releases every accepted socket and stops further admissions.
func (s *Server) closeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, st := range s.clients {
		if st.conn != nil {
			st.conn.Close()
		}
	}
}

func (s *Server) totalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.retired
	for _, st := range s.clients {
		if st.conn != nil {
			in, out := st.conn.Bytes()
			total += in + out
		}
	}
	return total
}

// flatLayers gives each layer's tensors as one vector — the form
// fed.ClusterRound aggregates and clusters. A layer whose tensors lie end to
// end in its flat array (a decoded frame, a reconstructed update) is that
// array, not a copy.
func flatLayers(layers []LayerPayload) [][]float64 {
	out := make([][]float64, len(layers))
	for l, pl := range layers {
		if isFlat(pl) {
			out[l] = pl.flat
			continue
		}
		n := 0
		for _, d := range pl.Data {
			n += len(d)
		}
		out[l] = make([]float64, 0, n)
		for _, d := range pl.Data {
			out[l] = append(out[l], d...)
		}
	}
	return out
}

// isFlat reports whether pl.flat is pl.Data end to end, value for value in
// the same memory.
func isFlat(pl LayerPayload) bool {
	off := 0
	for _, d := range pl.Data {
		if len(d) == 0 {
			continue
		}
		if off+len(d) > len(pl.flat) || &pl.flat[off] != &d[0] {
			return false
		}
		off += len(d)
	}
	return off == len(pl.flat) && off > 0
}

// unflatten is the inverse of flatLayers: it splits per-layer vectors back
// along the tensor bounds of tmpl. The payloads alias vecs.
func unflatten(tmpl []LayerPayload, vecs [][]float64) []LayerPayload {
	out := make([]LayerPayload, len(tmpl))
	for l, t := range tmpl {
		out[l] = LayerPayload{Layer: t.Layer, Names: t.Names, Shapes: t.Shapes}
		off := 0
		for _, d := range t.Data {
			end := off + len(d)
			out[l].Data = append(out[l].Data, vecs[l][off:end:end])
			off = end
		}
	}
	return out
}

// updateOf measures ΔW = weights − base per layer, end to end in *buf,
// which the caller keeps from round to round. It is nil —
// ΔW unknown, so the member's cluster is not split this round — when the
// session has no base yet or the base is laid out differently (a checkpoint
// from another model).
func updateOf(weights [][]float64, base []LayerPayload, buf *[]float64) [][]float64 {
	if len(base) != len(weights) {
		return nil
	}
	n := 0
	for _, w := range weights {
		n += len(w)
	}
	all := slices.Grow((*buf)[:0], n)[:n]
	*buf = all
	out := make([][]float64, len(weights))
	for l, w := range weights {
		d := all[:len(w):len(w)]
		all = all[len(w):]
		off := 0
		for _, b := range base[l].Data {
			if off+len(b) > len(w) {
				return nil
			}
			for j, x := range b {
				d[off+j] = w[off+j] - x
			}
			off += len(b)
		}
		if off != len(w) {
			return nil
		}
		out[l] = d
	}
	return out
}
