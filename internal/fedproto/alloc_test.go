package fedproto

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"fexiot/internal/fed"
	"fexiot/internal/fedproto/codec"
)

// What TestRoundAllocCeiling logs on the parent commit 6d012a0 (gob frames,
// a fresh buffer for every model a round moves): 13,676 KB a round.
const parentWireRoundBytes = 13676 << 10

// TestRoundAllocCeiling pins what the frame and the kept round buffers are
// for: a warmed round of fed_round's comm phase — four clients over
// loopback, a paper-dims GIN, q8 deltas, the trimmed mean — with a no-op
// local round allocates, server and clients together, less than one dense
// model (8 bytes a parameter) per client. A round is measured between two
// OnRoundComplete calls; the figure is the median of the rounds after the
// first three (round 0 goes dense and the rest grow the buffers).
func TestRoundAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("a 12-round federation")
	}
	const clients, rounds = 4, 12
	trimmed, err := fed.NewAggregator("trimmed")
	if err != nil {
		t.Fatal(err)
	}
	var total []uint64 // TotalAlloc at each round's close
	var ms runtime.MemStats
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr: addr, Clients: clients, Rounds: rounds, NumLayers: paperGIN(1).NumLayers(),
		Eps1: 0.4, Eps2: 0.95, Quorum: 1, RoundTimeout: time.Minute,
		Aggregator: trimmed, Codec: codec.Q8,
		OnRoundComplete: func(int, []LayerPayload) {
			runtime.ReadMemStats(&ms)
			total = append(total, ms.TotalAlloc)
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, errs[id] = RunClientSession(context.Background(), ClientConfig{Addr: addr, ID: id, DataSize: 24},
				paperGIN(100), func(int) map[int]float64 { return map[int]float64{} })
		}(id)
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	var per []uint64
	for r := 4; r < len(total); r++ {
		per = append(per, total[r]-total[r-1])
	}
	slices.Sort(per)
	round := per[len(per)/2]
	model := uint64(8 * paperGIN(1).NumElements())
	t.Logf("warmed round: %d KB, %d KB a client (parent %d KB; a dense model is %d KB)",
		round>>10, round/clients>>10, parentWireRoundBytes>>10, model>>10)
	if round/clients >= model {
		t.Fatalf("a warmed round allocates %d KB a client, want < %d KB (one dense model)",
			round/clients>>10, model>>10)
	}
}
