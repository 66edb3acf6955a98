package fedproto

import (
	"context"
	"errors"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fexiot/internal/autodiff"
)

// TestCheckFiniteUpdateUnit pins the gate itself: clean updates pass, NaN
// or Inf anywhere in the payload (weights or reported norm) fails with
// ErrNonFiniteUpdate.
func TestCheckFiniteUpdateUnit(t *testing.T) {
	mkMsg := func() *Message {
		p := scriptParams()
		return &Message{Kind: MsgUpdate, ClientID: 1, Round: 0,
			Layers: EncodeLayers(p, []int{0, 1}, zeroNorms(p))}
	}
	if err := CheckFiniteUpdate(mkMsg()); err != nil {
		t.Fatalf("clean update rejected: %v", err)
	}
	m := mkMsg()
	m.Layers[1].Data[0][1] = math.NaN()
	if err := CheckFiniteUpdate(m); !errors.Is(err, ErrNonFiniteUpdate) {
		t.Fatalf("NaN weight error %v, want ErrNonFiniteUpdate", err)
	}
	m = mkMsg()
	m.Layers[0].UpdateNorm = math.Inf(1)
	if err := CheckFiniteUpdate(m); !errors.Is(err, ErrNonFiniteUpdate) {
		t.Fatalf("Inf norm error %v, want ErrNonFiniteUpdate", err)
	}
}

// TestNaNClientEvicted is the poisoning e2e of the acceptance criteria: a
// client that ships NaN weights mid-federation is rejected before
// aggregation and evicted, the federation finishes on the honest survivors,
// and the honest global model matches the closed form that excludes every
// poisoned round — i.e. the NaN never leaks into anyone's weights.
func TestNaNClientEvicted(t *testing.T) {
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      4,
		Rounds:       3,
		NumLayers:    2,
		Quorum:       0.5,
		RoundTimeout: 5 * time.Second,
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
			conn := Wrap(raw)
			defer conn.Close()
			clientErrs[id] = runClientLoop(context.Background(), conn, id, 10, p, nil,
				func(round int) map[int]float64 {
					addDelta(p, float64(id+1)*0.1)
					if id == 3 && round == 1 {
						// Numeric sabotage: one poisoned coordinate in an
						// otherwise well-formed update.
						p.Get(p.Names()[0]).Data()[0] = math.NaN()
					}
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
			t.Fatalf("honest client %d: %v", id, clientErrs[id])
		}
	}
	if clientErrs[3] == nil {
		t.Fatal("NaN injector finished cleanly — it must be evicted")
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
			t.Fatalf("round %d responders %d, want %d (all: %v)",
				r, st.Responders[r], want, st.Responders)
		}
	}

	// Round 0 averages all four (mean delta 0.25); rounds 1-2 only the
	// honest three (0.2). No survivor may carry a non-finite weight.
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

// TestCheckpointSaveLoadRoundTrip pins the snapshot container itself,
// including a global-model tensor of every special float64 bit pattern.
func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fed.ckpt")
	p := scriptParams()
	special := specialBits()
	ck := &Checkpoint{
		Round:  3,
		Shapes: [][][2]int{{{1, 2}}, {{1, 2}}, {{1, len(special)}}},
		Names:  [][]string{{"l0.w"}, {"l1.w"}, {"l2.w"}},
		Global: append(EncodeLayers(p, []int{0, 1}, zeroNorms(p)), LayerPayload{Layer: 2,
			Names: []string{"l2.w"}, Shapes: [][2]int{{1, len(special)}}, Data: []Floats{special}}),
		Strikes: map[int]int{2: 1},
		Stats: ServerStats{RoundsCompleted: 3, Evicted: 1, Rejoined: 1,
			Responders: []int{3, 2, 3}},
	}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != ck.Round || got.Strikes[2] != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.Stats.RoundsCompleted != 3 || len(got.Stats.Responders) != 3 {
		t.Fatalf("stats lost: %+v", got.Stats)
	}
	if len(got.Global) != 3 || got.Global[1].Data[0][1] != p.Get("l1.w").Data()[1] {
		t.Fatalf("global model lost: %+v", got.Global)
	}
	if !sameBits(got.Global[2].Data[0], special) {
		t.Fatalf("special values saved as %v, loaded as %v", special, got.Global[2].Data[0])
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loading a missing checkpoint must error")
	}
}

// TestCheckpointResumeBitIdentical is the crash-recovery acceptance e2e: a
// checkpointing server is hard-killed mid-federation, a fresh server on the
// same address resumes from the snapshot, the clients ride their session
// backoff through the outage, and every client's final model is
// bit-identical to an uninterrupted run of the same seeded federation.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const (
		nClients = 3
		rounds   = 5
	)
	serverCfg := func(addr, ckpt string) ServerConfig {
		return ServerConfig{
			Addr:            addr,
			Clients:         nClients,
			Rounds:          rounds,
			NumLayers:       2,
			Quorum:          1, // every round averages all three, keeping the closed form exact
			RoundTimeout:    5 * time.Second,
			Eps1:            0.4,
			Eps2:            0.95,
			CheckpointPath:  ckpt,
			CheckpointEvery: 2,
		}
	}
	runClients := func(addr string, pace time.Duration) ([]*autodiff.ParamSet, []SessionStats, []error, *sync.WaitGroup) {
		params := make([]*autodiff.ParamSet, nClients)
		stats := make([]SessionStats, nClients)
		errs := make([]error, nClients)
		var wg sync.WaitGroup
		for id := 0; id < nClients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				p := scriptParams()
				params[id] = p
				stats[id], errs[id] = RunClientSession(context.Background(), ClientConfig{
					Addr: addr, ID: id, DataSize: 10,
					InitialBackoff: 10 * time.Millisecond,
					MaxBackoff:     50 * time.Millisecond,
					MaxAttempts:    100,
					OpTimeout:      5 * time.Second,
					Seed:           int64(id),
				}, p, func(round int) map[int]float64 {
					time.Sleep(pace)
					addDelta(p, float64(id+1)*0.1)
					return zeroNorms(p)
				})
			}(id)
		}
		return params, stats, errs, &wg
	}

	// Reference: the same federation, never interrupted (no checkpointing).
	refAddr := freeAddr(t)
	refSrv := NewServer(serverCfg(refAddr, ""))
	refDone := make(chan error, 1)
	go func() { _, err := refSrv.Run(context.Background()); refDone <- err }()
	refParams, _, refErrs, refWg := runClients(refAddr, 0)
	refWg.Wait()
	if err := <-refDone; err != nil {
		t.Fatalf("reference server: %v", err)
	}
	for id, err := range refErrs {
		if err != nil {
			t.Fatalf("reference client %d: %v", id, err)
		}
	}

	// Interrupted: kill the durable server once at least two rounds closed,
	// then restart it from the snapshot on the same address.
	ckpt := filepath.Join(t.TempDir(), "fed.ckpt")
	addr := freeAddr(t)
	srv1 := NewServer(serverCfg(addr, ckpt))
	done1 := make(chan error, 1)
	go func() { _, err := srv1.Run(context.Background()); done1 <- err }()
	params, stats, errs, wg := runClients(addr, 30*time.Millisecond)

	deadline := time.Now().Add(15 * time.Second)
	for srv1.Stats().RoundsCompleted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("federation never reached round 2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Stop()
	select {
	case <-done1: // crashed mid-federation, as intended
	case <-time.After(10 * time.Second):
		t.Fatal("stopped server did not return")
	}

	srv2 := NewServer(serverCfg(addr, ckpt))
	done2 := make(chan error, 1)
	go func() { _, err := srv2.Run(context.Background()); done2 <- err }()

	wg.Wait()
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("resumed server: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("resumed server did not finish")
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d session: %v (stats %+v)", id, err, stats[id])
		}
	}
	reconnects := 0
	for _, st := range stats {
		reconnects += st.Reconnects
	}
	if reconnects == 0 {
		t.Fatal("no client reconnected — the kill did not bite")
	}
	if got := srv2.Stats().RoundsCompleted; got < 1 {
		t.Fatalf("resumed server completed %d rounds, want ≥ 1", got)
	}

	// Bit-identical resume: every element of every client's final model must
	// equal the uninterrupted run exactly — no tolerance.
	for id := range params {
		got, want := params[id].Flatten(), refParams[id].Flatten()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("client %d element %d: resumed %v, uninterrupted %v",
					id, i, got[i], want[i])
			}
		}
	}
	// And the closed form holds: five rounds of mean delta 0.2 each.
	base := scriptParams()
	for i, b := range base.Flatten() {
		want := b + float64(rounds)*0.2
		if diff := params[0].Flatten()[i] - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("element %d = %v, want %v", i, params[0].Flatten()[i], want)
		}
	}
}
