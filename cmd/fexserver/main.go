// Command fexserver runs the FexIoT federated aggregation server over TCP:
// it waits for the expected number of fexclient processes, coordinates the
// training rounds with layer-wise clustered aggregation (Algorithm 1), and
// reports real transferred bytes — the measured counterpart of Fig. 7.
// Rounds are quorum-based: the server closes each round once the
// configured fraction of clients has delivered a valid update, evicts
// clients that stay silent for consecutive rounds, and re-admits rejoining
// clients by replaying the current aggregated model. -agg selects a
// Byzantine-robust aggregation rule (trimmed mean, median, norm-clipped
// mean, Krum) in place of the plain FedAvg mean, and -checkpoint makes the
// server durable: it snapshots the federation state every
// -checkpoint-every closed rounds and resumes from the latest snapshot
// after a crash.
//
// Checkpoints carry a SHA-256 integrity footer and rotate the previous
// snapshot to .prev: a corrupt or truncated latest file rolls back to the
// previous good one instead of failing startup.
//
// -http serves observability on the given address: Prometheus metrics at
// /metrics, a JSON status snapshot at /statusz, pprof profiles under
// /debug/pprof/, and health probes at /healthz (accept loop supervised,
// restart budget not exhausted) and /readyz (listening for clients).
// SIGINT/SIGTERM shut the federation down gracefully, flushing a final
// checkpoint when -checkpoint is set.
//
// Usage:
//
//	fexserver -addr :7070 -clients 4 -rounds 10 -quorum 0.75 -strikes 3 \
//	    -agg trimmed -checkpoint /tmp/fex.ckpt -checkpoint-every 2 \
//	    -http :9090
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"fexiot/internal/fed"
	"fexiot/internal/fedproto"
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	clients := flag.Int("clients", 2, "clients to wait for before round 0")
	rounds := flag.Int("rounds", 10, "federated rounds")
	layers := flag.Int("layers", 4, "model layer count (must match clients)")
	gate := fed.DefaultConfig(0)
	eps1 := flag.Float64("eps1", gate.Eps1, "clustering gate ε1 (relative)")
	eps2 := flag.Float64("eps2", gate.Eps2, "clustering gate ε2 (relative)")
	timeout := flag.Duration("timeout", fedproto.DefaultRoundTimeout,
		"per-client read/write deadline per message (0 or less: the default)")
	quorum := flag.Float64("quorum", fedproto.DefaultQuorum,
		"fraction of admitted clients required to close a round")
	strikes := flag.Int("strikes", fedproto.DefaultMaxStrikes,
		"consecutive missed rounds before eviction (0 or less: the default)")
	aggName := flag.String("agg", "fedavg",
		"aggregation rule: "+strings.Join(fed.AggregatorNames(), ", "))
	codecName := flag.String("codec", codec.Raw64,
		"update encoding assigned to every client: "+strings.Join(codec.Names(), ", "))
	checkpoint := flag.String("checkpoint", "",
		"checkpoint file; resumes from it when present (empty disables)")
	checkpointEvery := flag.Int("checkpoint-every", 1,
		"snapshot cadence in closed rounds")
	httpAddr := flag.String("http", "",
		"observability address serving /metrics, /statusz and /debug/pprof/ (empty disables)")
	flag.Parse()

	agg, err := fed.NewAggregator(*aggName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if _, err := codec.New(*codecName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var reg *obs.Registry
	if *httpAddr != "" {
		reg = obs.NewRegistry()
		mat.InstrumentKernels(reg)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := fedproto.NewServer(fedproto.ServerConfig{
		Addr:            *addr,
		Clients:         *clients,
		Rounds:          *rounds,
		Eps1:            *eps1,
		Eps2:            *eps2,
		NumLayers:       *layers,
		RoundTimeout:    *timeout,
		Quorum:          *quorum,
		MaxStrikes:      *strikes,
		Aggregator:      agg,
		Codec:           *codecName,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		Metrics:         reg,
	})
	if *httpAddr != "" {
		// The obs mux carries the health probes beside /metrics: /healthz
		// fails once the supervised accept loop trips its restart circuit,
		// /readyz reports whether the federation listener is up.
		mux := obs.NewHandler(reg)
		health := obs.NewHealth()
		health.AddLiveness("fedproto", srv.Healthy)
		health.AddReadiness("listening", srv.Ready)
		health.Mount(mux)
		hs, err := obs.StartHTTPHandler(*httpAddr, mux)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(2)
		}
		defer hs.Close()
		fmt.Printf("obs listening on http://%s\n", hs.Addr())
	}
	fmt.Printf("fexserver listening on %s for %d clients, %d rounds (quorum %.2f, %d strikes, %s aggregation, %s updates)\n",
		*addr, *clients, *rounds, *quorum, *strikes, agg.Name(), *codecName)
	if *checkpoint != "" {
		fmt.Printf("checkpointing every %d round(s) to %s\n", *checkpointEvery, *checkpoint)
	}
	total, err := srv.Run(ctx)
	stats := srv.Stats()
	if err != nil {
		// A signal-driven shutdown has already flushed its final checkpoint
		// inside Run (when -checkpoint is set); report it as an orderly
		// stop, not a failure.
		if ctx.Err() != nil {
			fmt.Printf("interrupted after %d rounds: %v\n",
				stats.RoundsCompleted, err)
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "server error after %d rounds: %v\n",
			stats.RoundsCompleted, err)
		os.Exit(1)
	}
	fmt.Printf("training complete: %d rounds, %d evicted, %d rejoined; total transferred bytes: %d (%.2f MB)\n",
		stats.RoundsCompleted, stats.Evicted, stats.Rejoined,
		total, float64(total)/1e6)
}
