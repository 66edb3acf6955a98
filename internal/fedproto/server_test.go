package fedproto

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
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
	c := Wrap(raw)
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
