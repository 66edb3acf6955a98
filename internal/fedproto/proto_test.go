package fedproto

import (
	"context"
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
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

func TestEncodeApplyRoundTrip(t *testing.T) {
	m := gnn.NewGIN(16, 8, 4, 1)
	p := m.Params()
	layers := make([]int, p.NumLayers())
	for i := range layers {
		layers[i] = i
	}
	payloads := EncodeLayers(p, layers, map[int]float64{0: 1.5})
	if len(payloads) != p.NumLayers() {
		t.Fatalf("payload count %d", len(payloads))
	}
	if payloads[0].UpdateNorm != 1.5 {
		t.Fatal("update norm lost")
	}
	// Apply into a fresh model of the same shape.
	m2 := gnn.NewGIN(16, 8, 4, 99)
	if err := ApplyLayers(m2.Params(), payloads); err != nil {
		t.Fatal(err)
	}
	if mat.Norm2(m2.Params().Sub(p).Flatten()) != 0 {
		t.Fatal("round trip changed weights")
	}
	// Shape mismatch is rejected.
	m3 := gnn.NewGIN(16, 12, 4, 1)
	if err := ApplyLayers(m3.Params(), payloads); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestLayerNorms(t *testing.T) {
	m := gnn.NewGIN(16, 8, 4, 1)
	before := m.Params().Clone()
	m.Params().Get("gin0.w1").Add(0, 0, 2)
	norms := LayerNorms(before, m.Params())
	if norms[0] != 2 {
		t.Fatalf("layer 0 norm %v want 2", norms[0])
	}
	for l := 1; l < m.Params().NumLayers(); l++ {
		if norms[l] != 0 {
			t.Fatalf("layer %d norm %v want 0", l, norms[l])
		}
	}
}

// refLayerNorms is LayerNorms as it stood at 6ba3676: clone-and-subtract the
// whole model, flatten each layer, take its norm.
func refLayerNorms(before, after *autodiff.ParamSet) map[int]float64 {
	out := map[int]float64{}
	diff := after.Sub(before)
	for l := 0; l < after.NumLayers(); l++ {
		out[l] = mat.Norm2(diff.FlattenLayer(l))
	}
	return out
}

// TestLayerNormsMatchesReference holds the one-pass LayerNorms to the
// three-copy body it replaced, bit for bit, on every model's parameter
// layout (GIN interleaves its readout layer with the others; MAGNN has the
// most tensors per layer) after a perturbation that leaves some tensors
// untouched, and pins that it allocates its result map and nothing else.
func TestLayerNormsMatchesReference(t *testing.T) {
	for name, m := range map[string]gnn.Model{
		"gin":   gnn.NewGIN(16, 8, 4, 1),
		"gcn":   gnn.NewGCN(16, 8, 4, 2),
		"magnn": gnn.NewMAGNN(16, 24, 8, 4, 3),
	} {
		before := m.Params().Clone()
		r := rng.New(7)
		for i, n := range m.Params().Names() {
			if i%4 == 3 {
				continue
			}
			d := m.Params().Get(n).Data()
			for j := range d {
				d[j] += r.NormFloat64() * 1e-3
			}
		}
		got, want := LayerNorms(before, m.Params()), refLayerNorms(before, m.Params())
		if len(got) != len(want) {
			t.Fatalf("%s: %d layers, reference %d", name, len(got), len(want))
		}
		for l, w := range want {
			if g, ok := got[l]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s layer %d: norm %v (present %v), reference %v", name, l, g, ok, w)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { LayerNorms(before, m.Params()) }); allocs > 2 {
			t.Fatalf("%s: LayerNorms allocates %.0f times, want ≤ 2 (the result map)", name, allocs)
		}
	}
}

// TestEndToEndTCP runs a real server with three clients over loopback and
// checks that training synchronises weights layer-wise and that bytes are
// accounted.
func TestEndToEndTCP(t *testing.T) {
	enc := embed.NewEncoder(16, 24)
	pool := fusion.MultiHomePool(3, 20, 15, nil)
	b := fusion.NewBuilder(5, enc)
	// The Builder and its Encoder memoise internally and are not safe for
	// concurrent use; build every client's dataset up front.
	mkData := func(n int) []*graph.Graph {
		out := make([]*graph.Graph, n)
		for i := range out {
			out[i] = b.OfflineSized(pool)
		}
		return out
	}
	datasets := make([][]*graph.Graph, 3)
	for i := range datasets {
		datasets[i] = mkData(20)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	dim := fusion.WordFeatureDim(enc)
	base := gnn.NewGIN(dim, 8, 4, 100)
	const clients = 3
	const rounds = 2

	srv := NewServer(ServerConfig{
		Addr:      addr,
		Clients:   clients,
		Rounds:    rounds,
		Eps1:      0.4,
		Eps2:      0.95,
		NumLayers: base.Params().NumLayers(),
	})
	serverBytes := make(chan int64, 1)
	serverErr := make(chan error, 1)
	go func() {
		total, err := srv.Run(context.Background())
		serverBytes <- total
		serverErr <- err
	}()

	models := make([]gnn.Model, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := base.Fresh(int64(id))
			m.Params().CopyFrom(base.Params())
			models[id] = m
			data := datasets[id]
			opt := autodiff.NewAdam(0.005)
			cfg := gnn.DefaultTrainConfig(int64(id))
			cfg.PairsPerEpoch = 10

			var conn *Conn
			for try := 0; try < 50; try++ {
				raw, err := net.Dial("tcp", addr)
				if err == nil {
					conn = Wrap(raw)
					break
				}
				// The server goroutine may not be listening yet: 50 refused
				// dials take a few ms without this, and a client that gives
				// up leaves the others waiting on the server's quorum forever.
				time.Sleep(10 * time.Millisecond)
			}
			if conn == nil {
				errs[id] = net.ErrClosed
				return
			}
			defer conn.Close()
			errs[id] = runClientLoop(context.Background(), conn, id, len(data), m.Params(), nil,
				func(round int) map[int]float64 {
					before := m.Params().Clone()
					cfg.Seed = int64(id*100 + round)
					gnn.TrainContrastive(m, data, cfg, opt)
					return LayerNorms(before, m.Params())
				})
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	total := <-serverBytes
	if total <= 0 {
		t.Fatal("no bytes accounted")
	}

	// After the final aggregated model is installed, clients in the same
	// cluster share weights; with these thresholds most runs keep one
	// cluster, so all three models should agree on at least layer 0.
	l0 := models[0].Params().FlattenLayer(0)
	agree := 0
	for _, m := range models[1:] {
		other := m.Params().FlattenLayer(0)
		same := true
		for i := range l0 {
			if l0[i] != other[i] {
				same = false
				break
			}
		}
		if same {
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("no client shares layer-0 weights with client 0 after aggregation")
	}
}

// specialBits are float64 bit patterns a dense tensor must carry unchanged:
// NaNs with payloads (quiet, signalling, negative), both zeros, the
// smallest and largest denormals, both infinities.
func specialBits() Floats {
	var out Floats
	for _, b := range []uint64{
		0x7ff8000000000123, 0x7ff0000000000001, 0xfff8000000000abc,
		0x0000000000000000, 0x8000000000000000,
		0x0000000000000001, 0x000fffffffffffff, 0x800fffffffffffff,
		0x7ff0000000000000, 0xfff0000000000000, 0x3ff0000000000000,
	} {
		out = append(out, math.Float64frombits(b))
	}
	return out
}

// sameBits reports whether two tensors hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestConnDenseBitsRoundTrip sends a model holding every special bit
// pattern through a real Conn pair and compares what arrives bit for bit,
// twice: the second message rides the stream without type descriptors.
func TestConnDenseBitsRoundTrip(t *testing.T) {
	a, b := pipeConns(t)
	special := specialBits()
	msg := &Message{Kind: MsgModel, Round: 1, Layers: []LayerPayload{{
		Layer: 0, Names: []string{"w", "e"}, Shapes: [][2]int{{1, len(special)}, {0, 0}},
		Data: []Floats{special, {}},
	}}}
	for i := 0; i < 2; i++ {
		// A frame this small fits the socket buffer: Send returns before
		// the peer reads.
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Layers) != 1 || len(got.Layers[0].Data) != 2 ||
			!sameBits(got.Layers[0].Data[0], special) || len(got.Layers[0].Data[1]) != 0 {
			t.Fatalf("message %d: sent %v, received %+v", i, special, got.Layers)
		}
	}
}
