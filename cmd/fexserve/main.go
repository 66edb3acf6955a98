// Command fexserve runs the snapshot-isolated inference server: it trains
// a compact detection system on synthetic homes, then serves POST
// /v1/detect and /v1/explain (JSON bodies of deployed rules plus an
// optional event log), GET /v1/status and the stateful streaming session
// endpoints under /v1/streams (create with a rule set, feed NDJSON event
// batches, read a rolling verdict) beside the observability routes
// (/metrics, /statusz, /debug/pprof/) and the health probes (/healthz,
// /readyz) on one address. Every /v1 error is a structured envelope
// {"error":{"code":...,"message":...}}.
//
// -republish retrains in the background on that cadence and atomically
// publishes each new model to the running server — the smoke test drives
// a concurrent request storm through exactly this window to prove a swap
// never drops or tears a request. The republisher runs supervised: a
// panic restarts it with backoff, and an exhausted restart budget flips
// /healthz to 503. A full request queue fast-fails with 429 +
// Retry-After; -max-body bounds request bodies (413 beyond it) and
// -max-snapshot-age makes /readyz report 503 once the live snapshot goes
// stale. SIGINT/SIGTERM shut the server down gracefully.
//
// Usage:
//
//	fexserve -addr :8080 -homes 10 -rules 22 -seed 7 \
//	    -workers 4 -republish 2s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fexiot"
	"fexiot/internal/eventlog"
	"fexiot/internal/obs"
	"fexiot/internal/supervise"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address (\":0\" picks a free port)")
	homes := flag.Int("homes", 10, "synthetic training homes")
	rulesPerHome := flag.Int("rules", 22, "rules per training home")
	graphsPerHome := flag.Int("graphs", 4, "graphs sampled per home")
	rounds := flag.Int("rounds", 3, "contrastive training rounds")
	pairs := flag.Int("pairs", 80, "contrastive pairs per round")
	seed := flag.Int64("seed", 7, "deterministic seed")
	workers := flag.Int("workers", 0, "inference workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "request queue depth (0 = 4 × workers)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline")
	maxBody := flag.Int64("max-body", 0, "request body cap in bytes (0 = 1 MiB)")
	maxSnapAge := flag.Duration("max-snapshot-age", 0,
		"/readyz fails once the live snapshot is older than this (0 = any snapshot)")
	republish := flag.Duration("republish", 0,
		"retrain and publish a fresh snapshot on this cadence (0 disables)")
	sample := flag.String("sample", "",
		"write a sample /v1/detect request body (JSON) to this file at startup")
	maxSessions := flag.Int("max-sessions", 0, "concurrent streaming sessions (0 = 256)")
	windowEvents := flag.Int("window-events", 0, "streaming window size in events (0 = 4096)")
	windowAge := flag.Int64("window-age", 0, "streaming window age in simulated seconds (0 = 3600)")
	idleTimeout := flag.Duration("idle-timeout", 0, "evict streaming sessions idle this long (0 = 10m)")
	streamSample := flag.String("stream-sample", "",
		"write a sample NDJSON event batch (attack-injected, cleaned) to this file at startup")
	flag.Parse()

	opts := fexiot.DefaultOptions()
	opts.Seed = *seed
	opts.WordDim, opts.SentenceDim = 24, 32
	opts.Hidden, opts.EmbedDim = 12, 8
	opts.Metrics = obs.NewRegistry()
	sys, err := fexiot.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	train := trainingGraphs(sys, *homes, *rulesPerHome, *graphsPerHome, *seed)
	fmt.Printf("training on %d graphs from %d homes...\n", len(train), *homes)
	sys.TrainCentral(train, *rounds, *pairs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := fexiot.Serve(ctx, sys, fexiot.ServeOptions{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		MaxSnapshotAge: *maxSnapAge,
		Streams: fexiot.StreamOptions{
			MaxSessions:     *maxSessions,
			MaxWindowEvents: *windowEvents,
			MaxWindowAge:    *windowAge,
			IdleTimeout:     *idleTimeout,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer srv.Close()

	if *sample != "" {
		// A ready-made request body so shell harnesses (serve-smoke) can
		// storm /v1/detect without generating rule JSON themselves.
		home := fexiot.GenerateHome(fexiot.ArchetypeNames()[0], 14, *seed+101)
		buf, err := json.Marshal(map[string]any{"rules": home})
		if err == nil {
			err = os.WriteFile(*sample, buf, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sample:", err)
			os.Exit(2)
		}
	}

	if *streamSample != "" {
		// An NDJSON event batch from the same home the -sample body deploys,
		// with fake commands injected, so the smoke test can open a stream
		// with the detect sample and feed it a vulnerable event window.
		home := fexiot.GenerateHome(fexiot.ArchetypeNames()[0], 14, *seed+101)
		raw := fexiot.SimulateHome(home, 1800, *seed+202)
		raw = eventlog.Inject(raw, eventlog.FakeCommands, home, 0.6, *seed+303)
		if err := writeNDJSON(*streamSample, fexiot.CleanLog(raw)); err != nil {
			fmt.Fprintln(os.Stderr, "stream-sample:", err)
			os.Exit(2)
		}
	}

	fmt.Printf("fexserve listening on http://%s\n", srv.Addr())

	if *republish > 0 {
		// The republisher runs supervised: a panicking retrain is restarted
		// with backoff instead of silently killing the cadence, and a
		// crash-looping one trips a circuit that fails /healthz (and, with
		// -max-snapshot-age, eventually /readyz as the snapshot staled).
		sup := supervise.New(supervise.Options{Metrics: opts.Metrics})
		srv.Health().AddLiveness("republisher", sup.Check)
		sup.Go(ctx, "republisher", func(ctx context.Context) error {
			t := time.NewTicker(*republish)
			defer t.Stop()
			for round := 1; ; round++ {
				select {
				case <-ctx.Done():
					return nil
				case <-t.C:
					// Each retrain ends in an atomic snapshot publish; the
					// server keeps answering on the old model until then.
					sys.TrainCentral(train, 1, *pairs)
					fmt.Printf("republished snapshot %d\n", round)
				}
			}
		})
	}

	<-ctx.Done()
	fmt.Println("shutting down")
}

// writeNDJSON writes one JSON event per line — the wire shape of
// POST /v1/streams/{id}/events.
func writeNDJSON(path string, log fexiot.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, e := range log {
		if err := enc.Encode(e); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// trainingGraphs samples labelled offline graphs across the built-in
// archetypes.
func trainingGraphs(sys *fexiot.System, homes, rulesPerHome, graphsPerHome int,
	seed int64) []*fexiot.Graph {
	archs := fexiot.ArchetypeNames()
	var train []*fexiot.Graph
	for h := 0; h < homes; h++ {
		deployed := fexiot.GenerateHome(archs[h%len(archs)], rulesPerHome,
			seed+int64(h+1))
		for i := 0; i < graphsPerHome; i++ {
			train = append(train, sys.BuildGraph(deployed))
		}
	}
	return train
}
