package fedproto

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
)

// fedRoundHash is the global model TestFedRoundModelHashPinned's federation
// ends in. It was 74966032…, as 6ba3676 — the commit before the vector row
// update, the four-chain MulBTTo and the pooled training tape — computes
// it, until GIN's input map became the first layer's projection (S·(X·W)
// for (S·X)·W) and training one tape per optimiser step (the gradient
// terms summed in another order).
const fedRoundHash = "af486691fd05914a6ee67d3affba4703e83e3dad843c94d549d8214e440eac20"

// TestFedRoundModelHashPinned runs bench/'s fed_round federation in small —
// four clients over loopback TCP, GIN at the paper's dimensions (332/64/32),
// 24 offline graphs of 6–29 nodes from each client's own household, raw64,
// FedAvg, three rounds of ten contrastive pairs — and pins the SHA-256 of the
// final global model's float bits. A kernel, tape or codec change that is
// bit-invisible leaves it alone; the same file run at the parent commit, on
// this one, and on this one with -tags purego must print the same hash
// (EXPERIMENTS.md "Training kernels").
func TestFedRoundModelHashPinned(t *testing.T) {
	const clients, rounds, seed = 4, 3, 3
	enc := embed.NewEncoder(300, 512)
	inDim := fusion.WordFeatureDim(enc)
	archs := rules.Archetypes()
	data := make([][]*graph.Graph, clients)
	for id := range data {
		s := int64(seed*1000 + id)
		pool := rules.NewGenerator(s, archs[id%len(archs)], fmt.Sprintf("c%d-", id)).RuleSet(50)
		b := fusion.NewBuilder(s+1, enc)
		for i := 0; i < 24; i++ {
			data[id] = append(data[id], b.Offline(pool, 6+i))
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var mu sync.Mutex
	var global []LayerPayload
	srv := NewServer(ServerConfig{
		Addr: addr, Clients: clients, Rounds: rounds, Eps1: 0.4, Eps2: 0.95,
		NumLayers: gnn.NewGIN(inDim, 64, 32, 100).Params().NumLayers(),
		Quorum:    1, RoundTimeout: time.Minute,
		OnRoundComplete: func(round int, g []LayerPayload) {
			mu.Lock()
			global = g
			mu.Unlock()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(ctx)
		srvErr <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.Ready() != nil; {
		if time.Now().After(deadline) {
			t.Fatal("server did not start listening")
		}
		time.Sleep(time.Millisecond)
	}

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := int64(seed*100 + id)
			model := gnn.NewGIN(inDim, 64, 32, 100)
			opt := autodiff.NewAdam(0.005)
			cfg := gnn.DefaultTrainConfig(s)
			cfg.LR = 0.005
			cfg.PairsPerEpoch = 10
			_, errs[id] = RunClientSession(ctx, ClientConfig{
				Addr: addr, ID: id, DataSize: len(data[id]), Seed: s,
			}, model.Params(), func(round int) map[int]float64 {
				before := model.Params().Clone()
				cfg.Seed = s + int64(round)
				gnn.TrainContrastive(model, data[id], cfg, opt)
				return LayerNorms(before, model.Params())
			})
		}(id)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if err := <-srvErr; err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	var b [8]byte
	for _, pl := range global {
		for _, d := range pl.Data {
			for _, x := range d {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("global model SHA-256 %s", got)
	if len(global) == 0 || got != fedRoundHash {
		t.Fatalf("global model hash %s, pinned %s", got, fedRoundHash)
	}
}
