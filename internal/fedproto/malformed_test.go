package fedproto

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// goodLayers builds a well-formed two-layer update payload.
func goodLayers() []LayerPayload {
	return []LayerPayload{
		{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}}, Data: []Floats{{1, 2}}},
		{Layer: 1, Names: []string{"w"}, Shapes: [][2]int{{1, 2}}, Data: []Floats{{3, 4}}},
	}
}

func TestValidateUpdate(t *testing.T) {
	ok := &Message{Kind: MsgUpdate, Layers: goodLayers()}
	if err := ValidateUpdate(ok, 2); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}

	cases := []struct {
		name string
		msg  *Message
	}{
		{"wrong kind", &Message{Kind: MsgHello, Layers: goodLayers()}},
		{"short layers", &Message{Kind: MsgUpdate, Layers: goodLayers()[:1]}},
		{"extra layers", &Message{Kind: MsgUpdate, Layers: append(goodLayers(),
			LayerPayload{Layer: 2, Names: []string{"w"}, Shapes: [][2]int{{1, 1}}, Data: []Floats{{9}}})},
		},
		{"shuffled layer ids", &Message{Kind: MsgUpdate, Layers: []LayerPayload{
			goodLayers()[1], goodLayers()[0]}},
		},
		{"names/data arity mismatch", &Message{Kind: MsgUpdate, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w", "b"}, Shapes: [][2]int{{1, 2}}, Data: []Floats{{1, 2}}},
			goodLayers()[1]}},
		},
		{"data shorter than shape", &Message{Kind: MsgUpdate, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}}, Data: []Floats{{1}}},
			goodLayers()[1]}},
		},
		{"negative shape", &Message{Kind: MsgUpdate, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{-1, -2}}, Data: []Floats{{1, 2}}},
			goodLayers()[1]}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateUpdate(tc.msg, 2)
			if !errors.Is(err, ErrMalformedUpdate) {
				t.Fatalf("want ErrMalformedUpdate, got %v", err)
			}
		})
	}
}

// TestCheckShapesPinning verifies the cross-client layout check: the first
// valid update pins the federation's tensor layout and later updates that
// disagree are rejected by name instead of panicking the aggregation.
func TestCheckShapesPinning(t *testing.T) {
	s := NewServer(ServerConfig{NumLayers: 2})
	if err := s.checkShapes(&Message{Kind: MsgUpdate, Layers: goodLayers()}); err != nil {
		t.Fatalf("pinning update rejected: %v", err)
	}
	if err := s.checkShapes(&Message{Kind: MsgUpdate, Layers: goodLayers()}); err != nil {
		t.Fatalf("matching update rejected: %v", err)
	}
	odd := goodLayers()
	odd[1].Shapes = [][2]int{{1, 3}}
	odd[1].Data = []Floats{{3, 4, 5}}
	if err := s.checkShapes(&Message{Kind: MsgUpdate, Layers: odd}); !errors.Is(err, ErrMalformedUpdate) {
		t.Fatalf("mismatched shapes: want ErrMalformedUpdate, got %v", err)
	}
	renamed := goodLayers()
	renamed[0].Names = []string{"v"}
	if err := s.checkShapes(&Message{Kind: MsgUpdate, Layers: renamed}); !errors.Is(err, ErrMalformedUpdate) {
		t.Fatalf("mismatched names: want ErrMalformedUpdate, got %v", err)
	}
}

// TestServerRejectsBadUpdates runs a live server against clients that ship
// malformed round updates. Every variant must surface as a named
// ErrMalformedUpdate (joined with the quorum failure) — never a panic —
// and the error must identify the offending client.
func TestServerRejectsBadUpdates(t *testing.T) {
	bad := []struct {
		name string
		msg  *Message
	}{
		{"short layers", &Message{Kind: MsgUpdate, ClientID: 1, Layers: goodLayers()[:1]}},
		{"shuffled layer ids", &Message{Kind: MsgUpdate, ClientID: 1,
			Layers: []LayerPayload{goodLayers()[1], goodLayers()[0]}}},
		{"wrong kind", &Message{Kind: MsgModel, ClientID: 1, Layers: goodLayers()}},
		{"data/shape mismatch", &Message{Kind: MsgUpdate, ClientID: 1, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 2}}, Data: []Floats{{1, 2, 3}}},
			goodLayers()[1]}}},
		{"pinned-shape mismatch", &Message{Kind: MsgUpdate, ClientID: 1, Layers: []LayerPayload{
			{Layer: 0, Names: []string{"w"}, Shapes: [][2]int{{1, 3}}, Data: []Floats{{1, 2, 3}}},
			goodLayers()[1]}}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			addr := freeAddr(t)
			srv := NewServer(ServerConfig{
				Addr: addr, Clients: 2, Rounds: 1, NumLayers: 2,
				Quorum: 1, RoundTimeout: 500 * time.Millisecond,
			})
			done := make(chan error, 1)
			go func() {
				_, err := srv.Run(context.Background())
				done <- err
			}()

			good := dialHello(t, addr, 0, 10)
			defer good.Close()
			badConn := dialHello(t, addr, 1, 10)
			defer badConn.Close()

			if err := good.Send(&Message{Kind: MsgUpdate, ClientID: 0, Round: 0,
				Layers: goodLayers()}); err != nil {
				t.Fatalf("good update: %v", err)
			}
			if err := badConn.Send(tc.msg); err != nil {
				t.Fatalf("bad update: %v", err)
			}

			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Run() succeeded despite a malformed update failing quorum")
				}
				if !errors.Is(err, ErrMalformedUpdate) {
					t.Fatalf("want ErrMalformedUpdate in chain, got %v", err)
				}
				if !errors.Is(err, ErrQuorumLost) {
					t.Fatalf("want ErrQuorumLost in chain, got %v", err)
				}
				if !strings.Contains(err.Error(), "client 1") && !strings.Contains(err.Error(), "client 0") {
					t.Fatalf("error does not identify a client: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run() still blocked after 5s")
			}
		})
	}
}
