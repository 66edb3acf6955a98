// Command fexclient runs one federated FexIoT client: it generates (or
// would in production: loads) its local interaction-graph dataset, connects
// to a fexserver, and participates in layer-wise clustered federated
// training over TCP. The session survives connection loss: it reconnects
// with exponential backoff plus jitter and resumes at the round the server
// announces, installing the replayed aggregated model. After training it
// reports local detection metrics.
//
// For robustness testing, -attack turns the client Byzantine: it runs the
// honest protocol but poisons what the server sees (label-flip, sign-flip,
// scale, nan, replay) — the adversary the server's -agg defences are
// measured against.
//
// Usage:
//
//	fexclient -addr localhost:7070 -id 0 -archetype security -graphs 120
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fed"
	"fexiot/internal/fedproto"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
)

func main() {
	addr := flag.String("addr", "localhost:7070", "server address")
	id := flag.Int("id", 0, "client id")
	archetype := flag.String("archetype", "security", "household archetype")
	nGraphs := flag.Int("graphs", 120, "local dataset size")
	pairs := flag.Int("pairs", 150, "contrastive pairs per round")
	seed := flag.Int64("seed", 0, "random seed (default: derived from id)")
	backoff := flag.Duration("backoff", fedproto.DefaultInitialBackoff,
		"initial reconnect backoff (doubles per attempt, jittered)")
	backoffMax := flag.Duration("backoff-max", fedproto.DefaultMaxBackoff,
		"reconnect backoff ceiling")
	retries := flag.Int("retries", 8,
		"consecutive failed connection attempts before giving up")
	opTimeout := flag.Duration("op-timeout", 5*time.Minute,
		"per-message send/receive deadline (0 disables)")
	attackName := flag.String("attack", "",
		"run as a Byzantine client: "+strings.Join(fed.AttackNames(), ", ")+
			" (empty = honest; for robustness testing)")
	httpAddr := flag.String("http", "",
		"observability address serving /metrics, /statusz and /debug/pprof/ (empty disables)")
	flag.Parse()
	if *seed == 0 {
		*seed = int64(*id)*7919 + 17
	}
	attack, err := fed.NewAttack(*attackName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var reg *obs.Registry
	if *httpAddr != "" {
		reg = obs.NewRegistry()
		mat.InstrumentKernels(reg)
		hs, err := obs.StartHTTP(*httpAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(2)
		}
		defer hs.Close()
		fmt.Printf("obs listening on http://%s\n", hs.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Local data: a home's interaction graphs. A typo'd archetype silently
	// training on the wrong distribution is exactly the kind of federation
	// skew that is impossible to debug from the server side, so unknown
	// names are fatal.
	enc := embed.NewEncoder(48, 64)
	var arch rules.Archetype
	var names []string
	for _, a := range rules.Archetypes() {
		names = append(names, a.Name)
		if a.Name == *archetype {
			arch = a
		}
	}
	if arch.Name == "" {
		fmt.Fprintf(os.Stderr, "unknown archetype %q; valid archetypes: %s\n",
			*archetype, strings.Join(names, ", "))
		os.Exit(2)
	}
	// One client is one household: its rule pool comes from its own
	// archetype, so clients with different -archetype flags really hold
	// non-i.i.d. data (the federation setting of §IV-C).
	gen := rules.NewGenerator(*seed, arch, fmt.Sprintf("c%d-", *id))
	pool := gen.RuleSet(50)
	b := fusion.NewBuilder(*seed+1, enc)
	var local []*graph.Graph
	for i := 0; i < *nGraphs; i++ {
		local = append(local, b.OfflineSized(pool))
	}
	cut := len(local) * 8 / 10
	train, test := local[:cut], local[cut:]
	if _, ok := attack.(fed.LabelFlip); ok {
		// Data poisoning happens before any training: the client optimises
		// honestly on dishonestly labelled graphs.
		for _, g := range train {
			g.Label = !g.Label
		}
	}

	model := gnn.NewGIN(fusion.WordFeatureDim(enc), 24, 16, 100)
	opt := autodiff.NewAdam(0.005)
	cfg := gnn.DefaultTrainConfig(*seed)
	cfg.LR = 0.005
	cfg.PairsPerEpoch = *pairs
	cfg.Metrics = reg

	stats, err := fedproto.RunClientSession(ctx, fedproto.ClientConfig{
		Addr:           *addr,
		ID:             *id,
		DataSize:       len(train),
		InitialBackoff: *backoff,
		MaxBackoff:     *backoffMax,
		MaxAttempts:    *retries,
		OpTimeout:      *opTimeout,
		Seed:           *seed,
	}, model.Params(), func(round int) map[int]float64 {
		before := model.Params().Clone()
		cfg.Seed = *seed + int64(round)
		gnn.TrainContrastive(model, train, cfg, opt)
		// Model-poisoning attacks corrupt the round's update after honest
		// local training, exactly like the in-process simulator's hook.
		if attack != nil {
			attack.Corrupt(before, model.Params())
		}
		return fedproto.LayerNorms(before, model.Params())
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "client session:", err)
		os.Exit(1)
	}

	det := gnn.NewDetector(model, 3)
	det.FitClassifier(train)
	m := gnn.EvaluateDetector(det, test)
	fmt.Printf("client %d done: local acc=%.3f f1=%.3f; wire in=%dB out=%dB reconnects=%d\n",
		*id, m.Accuracy, m.F1, stats.InBytes, stats.OutBytes, stats.Reconnects)
}
