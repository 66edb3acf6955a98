package fedproto

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fexiot/internal/embed"
	"fexiot/internal/fed"
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
)

// partition relabels a client → cluster assignment by first occurrence, so
// two assignments compare equal iff they group the clients the same way.
func partition[T any](of []T, same func(a, b T) bool) []int {
	out := make([]int, len(of))
	next := 0
	for i := range of {
		out[i] = -1
		for j := 0; j < i; j++ {
			if same(of[i], of[j]) {
				out[i] = out[j]
				break
			}
		}
		if out[i] < 0 {
			out[i] = next
			next++
		}
	}
	return out
}

// TestSimNetDifferential is the "simulated federation ≡ networked
// federation" equivalence as a differential test: the same seed and the
// same fed.Client.LocalTrain calls, once through fed.FexIoT().Run and once
// through a loopback Server with one RunClientSession per client, end
// every round in the bit-identical model on every client and in the same
// leaf clusters — under every aggregator, on a gate that never opens and
// on one that splits. Both sides run fed.ClusterRound; what differs is
// where W and ΔW come from (ParamSets vs. raw64 payloads and the model the
// server last sent). The server starts from a round-0 checkpoint holding
// the common initial model so round 0 has a base, as it does in the
// simulator.
func TestSimNetDifferential(t *testing.T) {
	const nClients, rounds = 6, 3
	enc := embed.NewEncoder(16, 24)
	pool := fusion.MultiHomePool(3, 20, 15, nil)
	b := fusion.NewBuilder(5, enc)
	graphs := make([]*graph.Graph, 120)
	for i := range graphs {
		graphs[i] = b.OfflineSized(pool)
	}
	datasets := fed.DirichletSplit(graphs, nClients, 0.3, fed.LabelArchetypeClass(5), 11)
	base := gnn.NewGIN(fusion.WordFeatureDim(enc), 8, 4, 100)
	numLayers := base.Params().NumLayers()
	allLayers := make([]int, numLayers)
	for l := range allLayers {
		allLayers[l] = l
	}

	for _, gate := range []struct {
		name       string
		eps1, eps2 float64
		splits     bool
	}{
		{"never splits", 0, 0.95, false},
		{"splits", 1.5, 0.5, true},
	} {
		for _, aggName := range fed.AggregatorNames() {
			t.Run(gate.name+"/"+aggName, func(t *testing.T) {
				agg, err := fed.NewAggregator(aggName)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fed.DefaultConfig(7)
				cfg.Train.PairsPerEpoch = 6
				cfg.Train.LR = 0.005
				cfg.Eps1, cfg.Eps2 = gate.eps1, gate.eps2
				cfg.Aggregator = agg

				// Simulated, stepped one round at a time (round r of Run uses
				// seed cfg.Seed+r) so every round's models and leaves show.
				sim := fed.NewClients(base, datasets, cfg.Train.LR)
				algo := fed.FexIoT()
				simModels := make([][][]float64, rounds) // [round][client]
				simLeaves := make([][]int, rounds)
				split := false
				for r := 0; r < rounds; r++ {
					step := cfg
					step.Rounds, step.Seed = 1, cfg.Seed+int64(r)
					res := algo.Run(sim, step)
					simLeaves[r] = partition(res.FinalClusters, func(a, b int) bool { return a == b })
					for _, leaf := range simLeaves[r] {
						split = split || leaf > 0 // a second leaf
					}
					for _, c := range sim {
						simModels[r] = append(simModels[r], c.Model.Params().Flatten())
					}
				}
				if split != gate.splits {
					t.Fatalf("simulator split = %v, want %v (leaves per round %v)", split, gate.splits, simLeaves)
				}

				// Networked: same clients, same local training, real wire.
				ckpt := filepath.Join(t.TempDir(), "fed.ckpt")
				if err := SaveCheckpoint(ckpt, &Checkpoint{
					Global: EncodeLayers(base.Params(), allLayers, nil)}); err != nil {
					t.Fatal(err)
				}
				addr := freeAddr(t)
				srv := NewServer(ServerConfig{
					Addr: addr, Clients: nClients, Rounds: rounds, NumLayers: numLayers,
					Eps1: cfg.Eps1, Eps2: cfg.Eps2, Aggregator: agg, Codec: codec.Raw64,
					Quorum: 1, RoundTimeout: time.Minute,
					CheckpointPath: ckpt, CheckpointEvery: rounds + 1, // read once, never rewritten
				})
				done := make(chan error, 1)
				go func() {
					_, err := srv.Run(context.Background())
					done <- err
				}()
				netClients := fed.NewClients(base, datasets, cfg.Train.LR)
				netModels := make([][][]float64, rounds)
				for r := range netModels {
					netModels[r] = make([][]float64, nClients)
				}
				errs := make([]error, nClients)
				var wg sync.WaitGroup
				for id, c := range netClients {
					wg.Add(1)
					go func(id int, c *fed.Client) {
						defer wg.Done()
						params := c.Model.Params()
						_, errs[id] = RunClientSession(context.Background(), ClientConfig{
							Addr: addr, ID: id, DataSize: len(c.Train),
							MaxAttempts: 100, InitialBackoff: 10 * time.Millisecond,
						}, params, func(round int) map[int]float64 {
							if round > 0 { // the previous round's reply is installed
								netModels[round-1][id] = params.Flatten()
							}
							train := cfg.Train
							train.Seed = cfg.Seed + int64(round)
							c.LocalTrain(train)
							return nil // the reported norm is not part of the protocol's decisions
						})
						netModels[rounds-1][id] = params.Flatten()
					}(id, c)
				}
				wg.Wait()
				for id, err := range errs {
					if err != nil {
						t.Fatalf("client %d: %v", id, err)
					}
				}
				if err := <-done; err != nil {
					t.Fatalf("server: %v", err)
				}

				for r := 0; r < rounds; r++ {
					for id := range netClients {
						for j, v := range simModels[r][id] {
							if got := netModels[r][id][j]; got != v {
								t.Fatalf("round %d client %d element %d: networked %v, simulated %v", r, id, j, got, v)
							}
						}
					}
					netLeaves := partition(netModels[r], func(a, b []float64) bool { return reflect.DeepEqual(a, b) })
					if !reflect.DeepEqual(netLeaves, simLeaves[r]) {
						t.Fatalf("round %d leaves: networked %v, simulated %v", r, netLeaves, simLeaves[r])
					}
				}
			})
		}
	}
}
