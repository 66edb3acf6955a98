package fedproto

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// mkLayer builds a single-tensor layer payload around one weight vector.
func mkLayer(layer int, data []float64, norm float64) LayerPayload {
	return LayerPayload{Layer: layer, Names: []string{"w"},
		Shapes: [][2]int{{1, len(data)}}, Data: []Floats{append([]float64(nil), data...)},
		UpdateNorm: norm}
}

// scriptedRound runs a one-layer, one-round federation of hand-driven
// clients over loopback: the server resumes from a round-0 checkpoint
// holding base, so every session has a base and ΔW = weights[i] − base is
// known; client i uploads weights[i] and reports norms[i]. It returns each
// client's reply and the global model the server published.
func scriptedRound(t *testing.T, eps1, eps2 float64, base []float64,
	weights [][]float64, norms []float64, sizes []int) (replies [][]float64, global []float64) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "fed.ckpt")
	if err := SaveCheckpoint(ckpt, &Checkpoint{Global: []LayerPayload{mkLayer(0, base, 0)}}); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr: addr, Clients: len(weights), Rounds: 1, NumLayers: 1,
		Eps1: eps1, Eps2: eps2, Quorum: 1, RoundTimeout: 5 * time.Second,
		CheckpointPath: ckpt,
		OnRoundComplete: func(_ int, g []LayerPayload) {
			global = g[0].Data[0]
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	replies = make([][]float64, len(weights))
	var wg sync.WaitGroup
	for id := range weights {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dialHello(t, addr, id, sizes[id])
			defer c.Close()
			if hello, err := c.Recv(); err != nil || len(hello.Layers) != 1 {
				t.Errorf("client %d sync = %+v, %v; want the checkpointed model", id, hello, err)
				return
			}
			up := &Message{Kind: MsgUpdate, ClientID: id,
				Layers: []LayerPayload{mkLayer(0, weights[id], norms[id])}}
			if err := c.Send(up); err != nil {
				t.Errorf("client %d update: %v", id, err)
				return
			}
			reply, err := c.Recv()
			if err != nil || len(reply.Layers) != 1 {
				t.Errorf("client %d reply = %+v, %v", id, reply, err)
				return
			}
			replies[id] = reply.Layers[0].Data[0]
		}(id)
	}
	wg.Wait()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not finish")
	}
	return replies, global
}

// TestServerSplitsOnMeasuredUpdates: the networked server gates on the ΔW
// it measures against the model it sent. Two camps moving apart split
// camp-by-camp, each camp aggregates only its own members, and the global
// model replayed to rejoiners stays the size-weighted mean over everyone.
func TestServerSplitsOnMeasuredUpdates(t *testing.T) {
	base := []float64{5, 5}
	weights := [][]float64{{6, 5}, {5.9, 5.1}, {4, 5}, {4.1, 4.9}} // base ± camp direction
	replies, global := scriptedRound(t, 0.4, 0.95, base, weights,
		[]float64{0, 0, 0, 0}, []int{30, 10, 10, 30})
	near := func(got []float64, want ...float64) bool {
		for i := range want {
			if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
				return false
			}
		}
		return len(got) == len(want)
	}
	// Camp A = clients 0,1 with weights 0.75/0.25; camp B = 2,3 with 0.25/0.75.
	if !near(replies[0], 5.975, 5.025) || !reflect.DeepEqual(replies[0], replies[1]) {
		t.Fatalf("camp A got %v and %v, want [5.975 5.025] twice", replies[0], replies[1])
	}
	if !near(replies[2], 4.075, 4.925) || !reflect.DeepEqual(replies[2], replies[3]) {
		t.Fatalf("camp B got %v and %v, want [4.075 4.925] twice", replies[2], replies[3])
	}
	// Weights 0.375/0.125/0.125/0.375 over all four.
	if !near(global, 5.025, 4.975) {
		t.Fatalf("global %v, want [5.025 4.975]", global)
	}
}

// TestServerIgnoresReportedUpdateNorm: two rounds identical except for the
// UpdateNorm one client reports produce the same clusters — the wire field
// no longer steers the gate. With Eps2 > 1 and four equally large measured
// updates the gate cannot fire, whatever a client claims.
func TestServerIgnoresReportedUpdateNorm(t *testing.T) {
	base := []float64{0, 0}
	weights := [][]float64{{1, 0}, {0.8, 0.6}, {-1, 0}, {-0.8, -0.6}} // all ‖ΔW‖ = 1
	sizes := []int{10, 10, 10, 10}
	honest, _ := scriptedRound(t, 0.4, 1.05, base, weights, []float64{1, 1, 1, 1}, sizes)
	inflated, _ := scriptedRound(t, 0.4, 1.05, base, weights, []float64{10, 1, 1, 1}, sizes)
	if !reflect.DeepEqual(honest, inflated) {
		t.Fatalf("a reported norm changed the round:\nhonest   %v\ninflated %v", honest, inflated)
	}
	for id := 1; id < 4; id++ {
		if !reflect.DeepEqual(honest[id], honest[0]) {
			t.Fatalf("client %d got %v, client 0 got %v: the cluster split", id, honest[id], honest[0])
		}
	}
}

// TestQuorumCount pins the quorum arithmetic, including the round nobody
// is left to answer.
func TestQuorumCount(t *testing.T) {
	for _, c := range []struct {
		frac    float64
		n, want int
	}{
		{DefaultQuorum, 3, 2}, {0.75, 4, 3}, {1, 4, 4}, {0.1, 4, 1}, {DefaultQuorum, 0, 1}, {1, 0, 1},
	} {
		if got := quorumCount(c.frac, c.n); got != c.want {
			t.Errorf("quorumCount(%v, %d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}
