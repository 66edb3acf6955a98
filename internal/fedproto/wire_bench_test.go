package fedproto

import (
	"io"
	"net"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
)

// paperGIN is a GIN's parameters at the paper's dimensions (332/64/32,
// 54,400 parameters).
func paperGIN(seed int64) *autodiff.ParamSet {
	return gnn.NewGIN(fusion.WordFeatureDim(embed.NewEncoder(300, 512)), 64, 32, seed).Params()
}

// paperModelMsg is the MsgModel a server sends each round at the paper's
// dimensions: a dense GIN, every layer.
func paperModelMsg() *Message {
	p := paperGIN(1)
	layers := make([]int, p.NumLayers())
	for i := range layers {
		layers[i] = i
	}
	return &Message{Kind: MsgModel, Round: 3, ModelSeq: 9,
		Layers: EncodeLayers(p, layers, map[int]float64{})}
}

// BenchmarkWire times one paper-dims MsgModel through Conn over net.Pipe,
// in steady state (the conn's buffers already grown): send is Conn.Send
// against a peer that discards the bytes, recv is Conn.Recv of a frame the
// peer replays verbatim. wire-B/op is the frame's size.
func BenchmarkWire(b *testing.B) {
	msg := paperModelMsg()
	frame, err := appendFrame(nil, msg)
	if err != nil {
		b.Fatal(err)
	}

	// peerDo runs the peer's side of a pipe until the benchmark closes its
	// own end, then waits for it to stop.
	peerDo := func(b *testing.B, peer func(net.Conn)) net.Conn {
		a, p := net.Pipe()
		done := make(chan struct{})
		go func() { defer close(done); peer(p) }()
		b.Cleanup(func() { a.Close(); <-done })
		return a
	}
	b.Run("dims=paper/send", func(b *testing.B) {
		a := peerDo(b, func(p net.Conn) { io.Copy(io.Discard, p) })
		c := Wrap(a, 0)
		if err := c.Send(msg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.Send(msg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(frame)), "wire-B/op")
	})
	b.Run("dims=paper/recv", func(b *testing.B) {
		a := peerDo(b, func(p net.Conn) {
			for {
				if _, err := p.Write(frame); err != nil {
					return
				}
			}
		})
		c := Wrap(a, 0)
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Recv(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(frame)), "wire-B/op")
	})
}
