package fedproto

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/chaos"
	"fexiot/internal/mat"
)

// freeAddr reserves a loopback address for a test server.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// scriptParams builds the deterministic two-layer parameter set every
// scripted chaos client starts from.
func scriptParams() *autodiff.ParamSet {
	p := autodiff.NewParamSet()
	p.Register("l0.w", 0, mat.NewDenseData(1, 2, []float64{1, 2}))
	p.Register("l1.w", 1, mat.NewDenseData(1, 2, []float64{3, 4}))
	return p
}

// addDelta shifts every parameter by d — a scripted "local training" step
// whose federated averages have a closed form the tests can pin.
func addDelta(p *autodiff.ParamSet, d float64) {
	for _, name := range p.Names() {
		m := p.Get(name)
		for i := range m.Data() {
			m.Data()[i] += d
		}
	}
}

// zeroNorms reports no layer movement, keeping the clustering gate shut so
// every round is a plain FedAvg the tests can predict.
func zeroNorms(p *autodiff.ParamSet) map[int]float64 {
	out := map[int]float64{}
	for l := 0; l < p.NumLayers(); l++ {
		out[l] = 0
	}
	return out
}

// TestQuorumSurvivesKilledClient is the headline fault-tolerance e2e: four
// clients, quorum 3, one hard-killed via the fault-injection conn between
// rounds 0 and 1. The server must finish every configured round with the
// survivors, and the survivors' aggregated model must equal the FedAvg
// closed form over exactly the clients that contributed each round.
func TestQuorumSurvivesKilledClient(t *testing.T) {
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      4,
		Rounds:       3,
		NumLayers:    2,
		Quorum:       0.75,
		MaxStrikes:   1,
		RoundTimeout: 2 * time.Second,
		Eps1:         0.4,
		Eps2:         0.95,
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		serverErr <- err
	}()

	params := make([]*autodiff.ParamSet, 4)
	clientErrs := make([]error, 4)
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := scriptParams()
			params[id] = p
			var raw net.Conn
			var err error
			for try := 0; try < 50; try++ {
				raw, err = net.Dial("tcp", addr)
				if err == nil {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err != nil {
				clientErrs[id] = err
				return
			}
			var fc *chaos.Conn
			if id == 3 {
				fc = chaos.NewConn(raw)
				raw = fc
			}
			conn := Wrap(raw)
			defer conn.Close()
			clientErrs[id] = runClientLoop(context.Background(), conn, id, 10, p, nil,
				func(round int) map[int]float64 {
					if id == 3 && round == 1 {
						fc.Kill() // crash mid-federation, mid-round
					}
					addDelta(p, float64(id+1)*0.1)
					return zeroNorms(p)
				})
		}(id)
	}
	wg.Wait()

	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("server failed despite quorum: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not finish")
	}
	for id := 0; id < 3; id++ {
		if clientErrs[id] != nil {
			t.Fatalf("survivor %d: %v", id, clientErrs[id])
		}
	}
	if clientErrs[3] == nil {
		t.Fatal("killed client finished cleanly — Kill did not bite")
	}

	st := srv.Stats()
	if st.RoundsCompleted != 3 {
		t.Fatalf("rounds completed %d, want 3", st.RoundsCompleted)
	}
	if st.Evicted != 1 {
		t.Fatalf("evicted %d, want 1", st.Evicted)
	}
	wantResp := []int{4, 3, 3}
	for r, want := range wantResp {
		if st.Responders[r] != want {
			t.Fatalf("round %d responders %d, want %d (all: %v)", r, st.Responders[r], want, st.Responders)
		}
	}

	// Closed form: uniform sizes, so each round adds the plain mean of the
	// contributors' deltas. Round 0 has clients 0-3 (mean 0.25), rounds 1-2
	// the survivors 0-2 (mean 0.2 each).
	wantShift := 0.25 + 0.2 + 0.2
	base := scriptParams()
	for id := 0; id < 3; id++ {
		got := params[id].Flatten()
		for i, b := range base.Flatten() {
			want := b + wantShift
			if diff := got[i] - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("survivor %d element %d = %v, want %v", id, i, got[i], want)
			}
		}
	}
}

// TestEvictionAndRejoinResync drives the full strike → evict → reconnect →
// replay cycle: a client whose writes black-hole misses a round, strikes
// out, is evicted (socket closed), reconnects through RunClientSession's
// backoff, is re-admitted with the current round and aggregated model, and
// finishes the federation in sync with the steady clients.
func TestEvictionAndRejoinResync(t *testing.T) {
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      3,
		Rounds:       5,
		NumLayers:    2,
		Quorum:       0.5,
		MaxStrikes:   1,
		RoundTimeout: 300 * time.Millisecond,
		Eps1:         0.4,
		Eps2:         0.95,
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		serverErr <- err
	}()
	// Let the listener come up before the sessions dial.
	for try := 0; try < 50; try++ {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	params := make([]*autodiff.ParamSet, 3)
	stats := make([]SessionStats, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := scriptParams()
			params[id] = p
			stats[id], errs[id] = RunClientSession(context.Background(), ClientConfig{
				Addr: addr, ID: id, DataSize: 10,
				OpTimeout: 5 * time.Second, Seed: int64(id),
			}, p, func(round int) map[int]float64 {
				// Pace the federation so the flaky client has rounds left
				// to rejoin into.
				time.Sleep(100 * time.Millisecond)
				addDelta(p, 0.1)
				return zeroNorms(p)
			})
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := scriptParams()
		params[2] = p
		var fc *chaos.Conn
		dials := 0
		blackholed := false
		stats[2], errs[2] = RunClientSession(context.Background(), ClientConfig{
			Addr: addr, ID: 2, DataSize: 10,
			InitialBackoff: 10 * time.Millisecond,
			MaxBackoff:     20 * time.Millisecond,
			MaxAttempts:    10,
			OpTimeout:      2 * time.Second,
			Seed:           2,
			Dial: func(addr string) (net.Conn, error) {
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				dials++
				if dials == 1 {
					fc = chaos.NewConn(raw)
					return fc, nil
				}
				return raw, nil
			},
		}, p, func(round int) map[int]float64 {
			if round == 1 && !blackholed {
				// Half-open link: the round-1 update is silently swallowed,
				// so the server times this client out and evicts it.
				fc.DropAfter(0)
				blackholed = true
			}
			time.Sleep(50 * time.Millisecond)
			addDelta(p, 0.3)
			return zeroNorms(p)
		})
	}()
	wg.Wait()

	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not finish")
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d session: %v (stats %+v)", id, err, stats[id])
		}
	}
	if stats[2].Reconnects == 0 {
		t.Fatal("flaky client never reconnected")
	}

	st := srv.Stats()
	if st.RoundsCompleted != 5 {
		t.Fatalf("rounds completed %d, want 5", st.RoundsCompleted)
	}
	if st.Evicted != 1 || st.Rejoined != 1 {
		t.Fatalf("evicted %d rejoined %d, want 1 and 1", st.Evicted, st.Rejoined)
	}
	if last := st.Responders[len(st.Responders)-1]; last != 3 {
		t.Fatalf("final round responders %d, want 3 (all: %v)", last, st.Responders)
	}

	// Everyone who received the final aggregated model agrees bit-for-bit:
	// the rejoiner resynced through the replayed model, not a desynced
	// stream.
	ref := params[0].Flatten()
	for id := 1; id < 3; id++ {
		got := params[id].Flatten()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("client %d element %d = %v, client 0 has %v — rejoiner desynced",
					id, i, got[i], ref[i])
			}
		}
	}
}
