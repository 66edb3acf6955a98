package fedproto

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/fedproto/codec"
)

// Client-session backoff defaults (ClientConfig zero values).
const (
	DefaultInitialBackoff = 100 * time.Millisecond
	DefaultMaxBackoff     = 5 * time.Second
	DefaultMaxAttempts    = 5
)

// runClientLoop drives one client over an established connection: it sends
// hello, waits for the server's sync reply (the round to resume at plus,
// for rejoiners, the current aggregated model), then for each round trains
// locally via the callback, ships all layers, and installs the aggregated
// reply. localRound must run one round of local training and return the
// per-layer update norms. The round counter always follows the server's
// announcements, so a client that reconnects mid-federation resumes at the
// federation's round rather than its own.
//
// The server's sync reply assigns the session's update codec; a lossy one
// makes the loop keep a clone of each model the server sends (the delta
// base) and echo its ModelSeq stamp with every update.
//
// Cancelling ctx closes the connection, unblocking any in-flight Send or
// Recv; the loop then returns context.Cause(ctx) instead of the socket
// error the teardown provoked.
func runClientLoop(ctx context.Context, conn *Conn, clientID, dataSize int,
	params *autodiff.ParamSet, localRound func(round int) map[int]float64) error {
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if err := conn.Send(&Message{Kind: MsgHello, ClientID: clientID,
		DataSize: dataSize}); err != nil {
		return loopErr(ctx, err)
	}
	syncMsg, err := conn.Recv()
	if err != nil {
		return loopErr(ctx, err)
	}
	if syncMsg.Kind != MsgModel {
		return fmt.Errorf("fedproto: unexpected sync kind %d", syncMsg.Kind)
	}
	cdc, err := codec.New(syncMsg.Codec)
	if err != nil {
		// A server assigning a scheme this build does not know is answered
		// with plain raw64 updates — always a legal encoding.
		cdc, _ = codec.New(codec.Raw64)
	}
	lossy := cdc.Name() != codec.Raw64
	// base/baseSeq name the last server model snapshot, the reference lossy
	// deltas are encoded against; every snapshot is copied into the one
	// clone. Seq 0 (no snapshot yet) → dense raw64 fallback.
	var base *autodiff.ParamSet
	var baseSeq uint64
	if len(syncMsg.Layers) > 0 {
		if err := ApplyLayers(params, syncMsg.Layers); err != nil {
			return err
		}
	}
	if lossy {
		base, baseSeq = params.Clone(), syncMsg.ModelSeq
	}
	if syncMsg.Final {
		return nil
	}
	layers := make([]int, params.NumLayers())
	for i := range layers {
		layers[i] = i
	}
	var delta []float64 // encodeUpdate's scratch, kept across rounds
	for round := syncMsg.Round; ; {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		norms := localRound(round)
		from := base
		if baseSeq == 0 {
			from = nil
		}
		up := &Message{Kind: MsgUpdate, ClientID: clientID, Round: round}
		up.Layers, up.Codec = encodeUpdate(params, from, layers, norms, cdc, &delta)
		if up.Codec != "" {
			up.BaseSeq = baseSeq
		}
		if err := conn.Send(up); err != nil {
			return loopErr(ctx, err)
		}
		reply, err := conn.Recv()
		if err != nil {
			return loopErr(ctx, err)
		}
		if reply.Kind != MsgModel {
			return fmt.Errorf("fedproto: unexpected reply kind %d", reply.Kind)
		}
		if err := ApplyLayers(params, reply.Layers); err != nil {
			return err
		}
		if lossy {
			base.CopyFrom(params)
			baseSeq = reply.ModelSeq
		}
		if reply.Final {
			return nil
		}
		round = reply.Round + 1
	}
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche bijection on
// 64-bit state, so every output bit depends on every input bit.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixSeed derives the per-session backoff rng seed from the configured
// seed and client id. The previous affine formula
// (Seed*2654435761 + ID + 1) overflowed silently and could collide across
// (seed, id) pairs — e.g. any two ids equidistant under seeds differing by
// one step; two full splitmix64 rounds avalanche both inputs so nearby
// clients of a restarted fleet never share a jitter stream.
func mixSeed(seed int64, id int) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ (uint64(int64(id)) + 0x9e3779b97f4a7c15)))
}

// loopErr prefers the cancellation cause over the socket error the
// cancellation-driven teardown provoked.
func loopErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return err
}

// ClientConfig shapes a reconnecting client session.
type ClientConfig struct {
	Addr     string
	ID       int
	DataSize int
	// InitialBackoff and MaxBackoff bound the exponential reconnect
	// backoff; every sleep is jittered by a uniform factor in [0.5, 1.5)
	// so a restarted fleet does not reconnect in lockstep. Zero values
	// select DefaultInitialBackoff / DefaultMaxBackoff.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// MaxAttempts caps consecutive failed attempts (dial errors or
	// sessions that die before the server's sync reply) before the
	// session gives up; zero selects DefaultMaxAttempts. An attempt that
	// reaches the sync reply resets the count and the backoff.
	MaxAttempts int
	// OpTimeout bounds every Send/Recv of the session; zero disables.
	OpTimeout time.Duration
	// Seed drives the backoff jitter deterministically per client.
	Seed int64
	// Dial overrides net.Dial("tcp", addr); tests inject fault-wrapped
	// connections here.
	Dial func(addr string) (net.Conn, error)
	// Sleep overrides time.Sleep in tests.
	Sleep func(time.Duration)
}

// SessionStats summarises a client session.
type SessionStats struct {
	Reconnects int
	InBytes    int64
	OutBytes   int64
}

// RunClientSession runs runClientLoop against cfg.Addr and survives
// connection failure: any error short of federation completion tears the
// connection down and reconnects with exponential backoff plus jitter,
// resuming at the server-announced round. It returns once the server
// declares the federation finished (a Final reply), after
// MaxAttempts consecutive attempts that made no progress, or as soon as
// ctx is cancelled — cancellation interrupts both in-flight protocol
// exchanges and backoff sleeps, and the session reports
// context.Cause(ctx).
func RunClientSession(ctx context.Context, cfg ClientConfig, params *autodiff.ParamSet,
	localRound func(round int) map[int]float64) (SessionStats, error) {
	if cfg.InitialBackoff <= 0 {
		cfg.InitialBackoff = DefaultInitialBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	sleep := cfg.Sleep
	if sleep == nil {
		// The default sleep is cancellation-aware so a SIGTERM during
		// backoff does not stall shutdown by up to MaxBackoff; injected
		// sleeps (tests) keep their own semantics.
		sleep = func(d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
			}
		}
	}
	rng := rand.New(rand.NewSource(mixSeed(cfg.Seed, cfg.ID)))

	var stats SessionStats
	backoff := cfg.InitialBackoff
	attempts := 0
	var lastErr error
	for {
		if ctx.Err() != nil {
			return stats, context.Cause(ctx)
		}
		raw, err := dial(cfg.Addr)
		if err != nil {
			lastErr = err
		} else {
			conn := Wrap(raw, cfg.OpTimeout)
			err = runClientLoop(ctx, conn, cfg.ID, cfg.DataSize, params, localRound)
			in, out := conn.Bytes()
			stats.InBytes += in
			stats.OutBytes += out
			conn.Close()
			if err == nil {
				return stats, nil
			}
			if ctx.Err() != nil {
				return stats, context.Cause(ctx)
			}
			lastErr = err
			if in > 0 {
				// The server's sync reply arrived, so this attempt made
				// real progress: reset the give-up budget and the backoff.
				attempts = 0
				backoff = cfg.InitialBackoff
			}
		}
		attempts++
		if attempts >= cfg.MaxAttempts {
			return stats, fmt.Errorf("fedproto: client %d: gave up after %d attempts: %w",
				cfg.ID, attempts, lastErr)
		}
		stats.Reconnects++
		sleep(time.Duration(float64(backoff) * (0.5 + rng.Float64())))
		backoff *= 2
		if backoff > cfg.MaxBackoff {
			backoff = cfg.MaxBackoff
		}
	}
}
