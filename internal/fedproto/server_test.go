package fedproto

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/fedproto/codec"
)

// dialHello connects to the server and completes the hello handshake.
func dialHello(t *testing.T, addr string, id, size int) *Conn {
	t.Helper()
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
		t.Fatalf("dial: %v", err)
	}
	c := Wrap(raw, 0)
	if err := c.Send(&Message{Kind: MsgHello, ClientID: id, DataSize: size}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return c
}

// TestServerHungClientFailsRound is the regression test for the blocking
// Recv deadlock: a client that goes silent after hello must fail the round
// with a deadline error naming the client, not hang Run() forever.
func TestServerHungClientFailsRound(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      2,
		Rounds:       1,
		NumLayers:    1,
		RoundTimeout: 250 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	good := dialHello(t, addr, 0, 10)
	defer good.Close()
	hung := dialHello(t, addr, 1, 10)
	defer hung.Close()

	// The good client ships a round-0 update; the hung client sends nothing.
	up := &Message{Kind: MsgUpdate, ClientID: 0, Round: 0, Layers: []LayerPayload{{
		Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}},
		Data: []Floats{{1, 2}}, UpdateNorm: 1,
	}}}
	if err := good.Send(up); err != nil {
		t.Fatalf("update: %v", err)
	}

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run() succeeded despite a hung client")
		}
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("want a net timeout error, got %v", err)
		}
		if !strings.Contains(err.Error(), "client 1") {
			t.Fatalf("error does not identify the hung client: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run() still blocked after 5s — deadline not applied")
	}
}

// TestServerSurfacesEveryFailedClient checks that when several clients
// fail in one round, the combined error names each of them.
func TestServerSurfacesEveryFailedClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      3,
		Rounds:       1,
		NumLayers:    1,
		RoundTimeout: 250 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	conns := make([]*Conn, 3)
	for id := 0; id < 3; id++ {
		conns[id] = dialHello(t, addr, id, 5)
		defer conns[id].Close()
	}
	// Client 0 sends a well-formed update; clients 1 and 2 both go silent.
	up := &Message{Kind: MsgUpdate, ClientID: 0, Round: 0, Layers: []LayerPayload{{
		Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 1}},
		Data: []Floats{{3}}, UpdateNorm: 1,
	}}}
	if err := conns[0].Send(up); err != nil {
		t.Fatalf("update: %v", err)
	}

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run() succeeded despite hung clients")
		}
		msg := err.Error()
		for _, want := range []string{"client 1", "client 2"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("combined error missing %q: %v", want, err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run() still blocked after 5s")
	}
}

// TestNegativeDataSizeNeverAdmitted: a hello announcing −10 graphs would
// enter FedAvg with weight −1 and subtract that member's model from the
// mean. The server closes the socket instead, and the round aggregates the
// honest clients alone.
func TestNegativeDataSizeNeverAdmitted(t *testing.T) {
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr: addr, Clients: 2, Rounds: 1, NumLayers: 1,
		Quorum: 1, RoundTimeout: 5 * time.Second,
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	liar := dialHello(t, addr, 2, -10)
	defer liar.Close()
	if m, err := liar.Recv(); err == nil {
		t.Fatalf("a hello announcing -10 graphs was answered with %+v", m)
	}

	honest := []*Conn{dialHello(t, addr, 0, 10), dialHello(t, addr, 1, 10)}
	for id, c := range honest {
		defer c.Close()
		if _, err := c.Recv(); err != nil {
			t.Fatalf("client %d sync: %v", id, err)
		}
		if err := c.Send(&Message{Kind: MsgUpdate, ClientID: id, Layers: []LayerPayload{{
			Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}},
			Data: []Floats{{float64(1 + 2*id), float64(2 + 4*id)}},
		}}}); err != nil {
			t.Fatalf("client %d update: %v", id, err)
		}
	}
	// Equal sizes: the closed form is the plain mean of {1, 2} and {3, 6}.
	for id, c := range honest {
		m, err := c.Recv()
		if err != nil {
			t.Fatalf("client %d reply: %v", id, err)
		}
		if got := m.Layers[0].Data[0]; got[0] != 2 || got[1] != 4 {
			t.Fatalf("client %d received %v, want [2 4]", id, got)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r := srv.Stats().Responders; len(r) != 1 || r[0] != 2 {
		t.Fatalf("responders %v, want [2]", r)
	}
}

// TestRejoinMidReplyGetsOnlySync: a client that rejoins after its update
// arrived but before the replies go out must see its sync as the first and
// only model on the new session. The reply to the update goes on the conn
// that carried it, which the rejoin closed. The publish hook holds the
// round between aggregation and the replies while the rejoin completes.
func TestRejoinMidReplyGetsOnlySync(t *testing.T) {
	addr := freeAddr(t)
	aggregated, resume := make(chan struct{}), make(chan struct{})
	srv := NewServer(ServerConfig{
		Addr: addr, Clients: 2, Rounds: 1, NumLayers: 1,
		Quorum: 1, RoundTimeout: 5 * time.Second,
		OnRoundComplete: func(int, []LayerPayload) {
			close(aggregated)
			<-resume
		},
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	conns := []*Conn{dialHello(t, addr, 0, 10), dialHello(t, addr, 1, 10)}
	for id, c := range conns {
		defer c.Close()
		if _, err := c.Recv(); err != nil {
			t.Fatalf("client %d sync: %v", id, err)
		}
		if err := c.Send(&Message{Kind: MsgUpdate, ClientID: id, Layers: []LayerPayload{{
			Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 1}}, Data: []Floats{{float64(id)}},
		}}}); err != nil {
			t.Fatalf("client %d update: %v", id, err)
		}
	}

	<-aggregated
	again := dialHello(t, addr, 1, 10)
	defer again.Close()
	sync, err := again.Recv()
	if err != nil {
		t.Fatalf("rejoin sync: %v", err)
	}
	if sync.Kind != MsgModel || sync.ModelSeq == 0 || len(sync.Layers) != 1 ||
		sync.Layers[0].Data[0][0] != 0.5 {
		t.Fatalf("rejoin's first message %+v, want the sync of the round-0 mean", sync)
	}
	close(resume)

	if m, err := conns[0].Recv(); err != nil || m.Layers[0].Data[0][0] != 0.5 {
		t.Fatalf("client 0 reply %+v, %v", m, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Run has returned and closed every conn: anything still unread on the
	// new session would be a reply that crossed onto it.
	if m, err := again.Recv(); err == nil {
		t.Fatalf("rejoined session received a second model %+v after its sync", m)
	}
	if m, err := conns[1].Recv(); err == nil {
		t.Fatalf("the closed session received %+v", m)
	}
	if st := srv.Stats(); st.Rejoined != 1 || st.Evicted != 0 {
		t.Fatalf("rejoined %d evicted %d, want 1 and 0", st.Rejoined, st.Evicted)
	}
}

// TestStaleBaseDeltaEvicted: each session keeps one base, the last model
// sent on it. A q8 delta against the model before that is malformed, and
// its sender is evicted.
func TestStaleBaseDeltaEvicted(t *testing.T) {
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr: addr, Clients: 1, Rounds: 3, NumLayers: 2, Eps1: 0.4, Eps2: 0.95,
		Quorum: 1, RoundTimeout: 5 * time.Second, Codec: codec.Q8,
	})
	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		done <- err
	}()

	c := dialHello(t, addr, 0, 10)
	defer c.Close()
	if sync, err := c.Recv(); err != nil || sync.Codec != codec.Q8 {
		t.Fatalf("sync %+v, %v; want the q8 assignment", sync, err)
	}
	p, layers := scriptParams(), []int{0, 1}
	cdc, _ := codec.New(codec.Q8)
	exchange := func(round int, base *autodiff.ParamSet, baseSeq uint64) (*Message, error) {
		addDelta(p, 0.1)
		up := &Message{Kind: MsgUpdate, Round: round, BaseSeq: baseSeq}
		up.Layers, up.Codec = encodeUpdate(p, base, layers, zeroNorms(p), cdc)
		if err := c.Send(up); err != nil {
			return nil, err
		}
		return c.Recv()
	}
	// Round 0 has no base, so it goes dense; round 1 is a delta against
	// round 0's reply, the session's base.
	r0, err := exchange(0, nil, 0)
	if err != nil {
		t.Fatalf("round 0: %v", err)
	}
	ApplyLayers(p, r0.Layers)
	prev := p.Clone()
	r1, err := exchange(1, prev, r0.ModelSeq)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	ApplyLayers(p, r1.Layers)
	// Round 2 names round 0's reply again: no longer the session's base.
	if m, err := exchange(2, prev, r0.ModelSeq); err == nil {
		t.Fatalf("a delta against a superseded base was answered with %+v", m)
	}
	err = <-done
	if !errors.Is(err, ErrMalformedUpdate) || !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("Run = %v, want ErrMalformedUpdate and ErrQuorumLost", err)
	}
	if st := srv.Stats(); st.Evicted != 1 || st.RoundsCompleted != 2 {
		t.Fatalf("evicted %d, rounds %d; want 1 and 2", st.Evicted, st.RoundsCompleted)
	}
}
