package fedproto

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/chaos"
	"fexiot/internal/embed"
	"fexiot/internal/fed"
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
)

// bigParams builds a two-layer parameter set with 400 values per layer —
// large enough that per-update wire bytes are dominated by tensor data, not
// gob framing, so compression ratios measured on the socket are meaningful.
func bigParams(seed int64) *autodiff.ParamSet {
	p := autodiff.NewParamSet()
	s := uint64(seed)
	fill := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			s = splitmix64(s)
			out[i] = float64(s%100000)/100000 - 0.5
		}
		return out
	}
	p.Register("l0.w", 0, mat.NewDenseData(1, 400, fill(400)))
	p.Register("l1.w", 1, mat.NewDenseData(1, 400, fill(400)))
	return p
}

// varyDelta shifts every parameter by a small element-dependent amount, so
// scripted updates have realistic (non-constant) deltas for quantisation.
func varyDelta(p *autodiff.ParamSet, id, round int) {
	s := splitmix64(uint64(id)*1000003 + uint64(round))
	for _, name := range p.Names() {
		m := p.Get(name)
		d := m.Data()
		for i := range d {
			s = splitmix64(s)
			d[i] += float64(s%1000) / 50000 // [0, 0.02)
		}
	}
}

// runScriptedCodecFed drives a clients×rounds scripted federation of
// newParams(id) models with the given server codec preference and returns
// the server (its metrics still readable) and every client's final params.
func runScriptedCodecFed(t *testing.T, codecName string, newParams func(int64) *autodiff.ParamSet, nClients, rounds int) (*Server, []*autodiff.ParamSet) {
	t.Helper()
	addr := freeAddr(t)
	srv := NewServer(ServerConfig{
		Addr:         addr,
		Clients:      nClients,
		Rounds:       rounds,
		NumLayers:    newParams(0).NumLayers(),
		Quorum:       1,
		RoundTimeout: 10 * time.Second,
		Eps1:         0.4,
		Eps2:         0.95,
		Codec:        codecName,
		Metrics:      obs.NewRegistry(),
	})
	serverErr := make(chan error, 1)
	go func() {
		_, err := srv.Run(context.Background())
		serverErr <- err
	}()

	params := make([]*autodiff.ParamSet, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for id := 0; id < nClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := newParams(int64(id))
			params[id] = p
			var conn *Conn
			for try := 0; try < 100; try++ {
				raw, err := net.Dial("tcp", addr)
				if err == nil {
					conn = Wrap(raw, 0)
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if conn == nil {
				errs[id] = net.ErrClosed
				return
			}
			defer conn.Close()
			errs[id] = runClientLoop(context.Background(), conn, id, 10, p,
				func(round int) map[int]float64 {
					varyDelta(p, id, round)
					return zeroNorms(p)
				})
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	select {
	case err := <-serverErr:
		if err != nil {
			t.Fatalf("server: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("server did not finish")
	}
	return srv, params
}

// TestCodecQ8ByteReduction is the communication-efficiency acceptance e2e:
// a q8 federation's per-update wire bytes (measured on the real socket and
// reported through the new obs counters) must be at least 4× smaller than
// the dense raw64 updates of the same federation, and the lossy pipeline
// must land within quantisation error of a bit-exact raw64 twin run.
func TestCodecQ8ByteReduction(t *testing.T) {
	const nClients, rounds = 3, 4
	srv, q8Params := runScriptedCodecFed(t, codec.Q8, bigParams, nClients, rounds)

	// Round 0 has no shared base, so its updates go dense and are recorded
	// under raw64; rounds 1..3 ride q8 deltas. Compare per-update averages.
	rawWire := srv.metrics.updEnc.With(codec.Raw64).Value()
	q8Wire := srv.metrics.updEnc.With(codec.Q8).Value()
	if rawWire <= 0 || q8Wire <= 0 {
		t.Fatalf("update byte counters not populated: raw64=%d q8=%d", rawWire, q8Wire)
	}
	avgRaw := float64(rawWire) / float64(nClients)          // 1 dense round
	avgQ8 := float64(q8Wire) / float64(nClients*(rounds-1)) // 3 q8 rounds
	if avgRaw < 4*avgQ8 {
		t.Fatalf("q8 update averages %.0f wire bytes vs %.0f dense — reduction %.2fx, want ≥4x",
			avgQ8, avgRaw, avgRaw/avgQ8)
	}
	if dense := srv.metrics.updRaw.Value(); dense <= rawWire {
		t.Fatalf("raw-equivalent tally %d should exceed the dense round's wire bytes %d", dense, rawWire)
	}
	if n := srv.metrics.ratio.Count(); n != int64(nClients*rounds) {
		t.Fatalf("compression-ratio histogram saw %d updates, want %d", n, nClients*rounds)
	}

	// Twin run under raw64: identical scripts, lossless wire. The q8 run
	// must agree within accumulated quantisation error (per-round error is
	// ≤ Scale/2 per coordinate with Scale ≈ delta-range/255 ≈ 8e-5).
	_, rawParams := runScriptedCodecFed(t, codec.Raw64, bigParams, nClients, rounds)
	for id := range rawParams {
		want, got := rawParams[id].Flatten(), q8Params[id].Flatten()
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 5e-3 {
				t.Fatalf("client %d element %d: q8 %v vs raw64 %v (|Δ|=%v)",
					id, i, got[i], want[i], d)
			}
		}
	}
}

// TestDenseWireBytesMatchSimulator holds the real protocol to the
// in-process simulator's byte accounting (fed.bytesFor, 8 bytes a
// parameter, which Fig. 7 compares): in a two-client raw64 federation of a
// paper-dims GIN, the updates cost at least 8 bytes a parameter on the
// socket and at most 1 % plus 4 KiB more. Every dense update of one model
// is the same length up to a few header bytes, so their sum is bounded.
func TestDenseWireBytesMatchSimulator(t *testing.T) {
	const nClients, rounds = 2, 3
	srv, params := runScriptedCodecFed(t, codec.Raw64, paperGIN, nClients, rounds)
	n, updates := int64(params[0].NumElements()), int64(nClients*rounds)
	lo, hi := 8*n, 8*n*101/100+4096
	wire := srv.metrics.updEnc.With(codec.Raw64).Value()
	t.Logf("%d updates: %d socket bytes, %.3f a parameter", updates, wire, float64(wire)/float64(updates*n))
	if wire < updates*lo || wire > updates*hi {
		t.Fatalf("%d updates of %d parameters cost %d socket bytes (%.3f a parameter), want %d…%d each",
			updates, n, wire, float64(wire)/float64(updates*n), lo, hi)
	}
}

// TestDecodeUpdateDeltaReconstruction pins the codec layer against the
// session's base: a delta decodes to base+delta within quantisation error,
// a delta naming any base but the session's is malformed, and a base of
// the wrong shape is rejected before indexing.
func TestDecodeUpdateDeltaReconstruction(t *testing.T) {
	p := scriptParams()
	addDelta(p, 0.5)
	base := scriptParams()
	basePayloads := EncodeLayers(base, []int{0, 1}, zeroNorms(base))

	cdc, _ := codec.New(codec.Q8)
	lay, scheme := encodeUpdate(p, base, []int{0, 1}, zeroNorms(p), cdc)
	if scheme != codec.Q8 {
		t.Fatalf("encodeUpdate scheme=%q", scheme)
	}
	m := &Message{Kind: MsgUpdate, Layers: lay, Codec: scheme, BaseSeq: 9}
	if err := decodeUpdate(m, basePayloads, 9); err != nil {
		t.Fatal(err)
	}
	if err := ValidateUpdate(m, 2); err != nil {
		t.Fatal(err)
	}
	for l, pl := range m.Layers {
		for i, d := range pl.Data {
			for j, v := range d {
				want := p.Get(pl.Names[i]).Data()[j]
				if math.Abs(v-want) > 1e-2 {
					t.Fatalf("layer %d tensor %d el %d: %v want ≈%v", l, i, j, v, want)
				}
			}
		}
	}

	// No base, or a base other than the session's: the update is
	// undecodable and must be named malformed.
	for _, c := range []struct {
		base    []LayerPayload
		baseSeq uint64
	}{{nil, 0}, {basePayloads, 8}} {
		lay, scheme := encodeUpdate(p, base, []int{0, 1}, zeroNorms(p), cdc)
		m := &Message{Kind: MsgUpdate, Layers: lay, Codec: scheme, BaseSeq: 9}
		if err := decodeUpdate(m, c.base, c.baseSeq); !errors.Is(err, ErrMalformedUpdate) {
			t.Fatalf("session base %d: %v, want ErrMalformedUpdate", c.baseSeq, err)
		}
	}

	// Wrong-shape base: rejected, never indexed out of range.
	small := autodiff.NewParamSet()
	small.Register("l0.w", 0, mat.NewDenseData(1, 1, []float64{1}))
	lay3, scheme3 := encodeUpdate(p, base, []int{0, 1}, zeroNorms(p), cdc)
	m3 := &Message{Kind: MsgUpdate, Layers: lay3, Codec: scheme3, BaseSeq: 9}
	if err := decodeUpdate(m3, EncodeLayers(small, []int{0}, nil), 9); !errors.Is(err, ErrMalformedUpdate) {
		t.Fatalf("mismatched base: %v, want ErrMalformedUpdate", err)
	}

	// No-base encode falls back to dense raw64 — lossy absolute weights
	// would corrupt a fresh joiner's first round.
	lay4, scheme4 := encodeUpdate(p, nil, []int{0, 1}, zeroNorms(p), cdc)
	if scheme4 != "" {
		t.Fatalf("no-base encode: scheme=%q, want dense raw64", scheme4)
	}
	for _, pl := range lay4 {
		if len(pl.Enc) != 0 || len(pl.Data) == 0 {
			t.Fatal("no-base encode must carry dense Data")
		}
	}
}

// TestCodecChaosKillQ8 reruns the headline fault-tolerance chaos test under
// q8 updates: four clients, quorum 3, one hard-killed mid-federation. The
// codec layer must not weaken the quorum machinery, and the survivors'
// final models must stay within quantisation error of the dense closed
// form.
func TestCodecChaosKillQ8(t *testing.T) {
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
		Codec:        codec.Q8,
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
			conn := Wrap(raw, 0)
			defer conn.Close()
			clientErrs[id] = runClientLoop(context.Background(), conn, id, 10, p,
				func(round int) map[int]float64 {
					if id == 3 && round == 1 {
						fc.Kill()
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
	if got := srv.Stats().RoundsCompleted; got != 3 {
		t.Fatalf("rounds completed %d, want 3", got)
	}

	// Dense closed form (round 0 mean 0.25, rounds 1-2 mean 0.2), met
	// within accumulated q8 error: constant deltas quantise exactly, so the
	// tolerance only covers the offset/scale representation.
	wantShift := 0.25 + 0.2 + 0.2
	base := scriptParams()
	for id := 0; id < 3; id++ {
		got := params[id].Flatten()
		for i, b := range base.Flatten() {
			want := b + wantShift
			if diff := math.Abs(got[i] - want); diff > 1e-6 {
				t.Fatalf("survivor %d element %d = %v, want %v (|Δ|=%v)", id, i, got[i], want, diff)
			}
		}
	}
}

// TestCodecPoisonF1Parity is the accuracy half of the acceptance pin: a
// real GIN federation with one sign-flipping Byzantine client under
// trimmed-mean aggregation, run twice — raw64 and q8 — must land within 2
// F1 points of each other on held-out graphs. Quantised deltas must not
// change what the poison defences deliver.
func TestCodecPoisonF1Parity(t *testing.T) {
	enc := embed.NewEncoder(16, 24)
	pool := fusion.MultiHomePool(3, 20, 15, nil)
	b := fusion.NewBuilder(5, enc)
	mkData := func(n int) []*graph.Graph {
		out := make([]*graph.Graph, n)
		for i := range out {
			out[i] = b.OfflineSized(pool)
		}
		return out
	}
	const nClients = 4
	datasets := make([][]*graph.Graph, nClients)
	for i := range datasets {
		datasets[i] = mkData(20)
	}
	test := mkData(30)
	dim := fusion.WordFeatureDim(enc)
	base := gnn.NewGIN(dim, 8, 4, 100)

	runOnce := func(codecName string) float64 {
		addr := freeAddr(t)
		srv := NewServer(ServerConfig{
			Addr:         addr,
			Clients:      nClients,
			Rounds:       2,
			Eps1:         0.4,
			Eps2:         0.95,
			NumLayers:    base.Params().NumLayers(),
			Quorum:       1,
			RoundTimeout: 60 * time.Second,
			Aggregator:   fed.TrimmedMeanAgg{},
			Codec:        codecName,
		})
		serverErr := make(chan error, 1)
		go func() {
			_, err := srv.Run(context.Background())
			serverErr <- err
		}()

		models := make([]gnn.Model, nClients)
		errs := make([]error, nClients)
		var wg sync.WaitGroup
		for id := 0; id < nClients; id++ {
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
				for try := 0; try < 100; try++ {
					raw, err := net.Dial("tcp", addr)
					if err == nil {
						conn = Wrap(raw, 0)
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
				if conn == nil {
					errs[id] = net.ErrClosed
					return
				}
				defer conn.Close()
				errs[id] = runClientLoop(context.Background(), conn, id, len(data), m.Params(),
					func(round int) map[int]float64 {
						before := m.Params().Clone()
						cfg.Seed = int64(id*100 + round)
						gnn.TrainContrastive(m, data, cfg, opt)
						if id == nClients-1 {
							// The Byzantine member: honest training, poisoned
							// update — the adversary of the poison suite.
							fed.CorruptUpdate(fed.SignFlip{}, before, m.Params())
						}
						return LayerNorms(before, m.Params())
					})
			}(id)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil {
				t.Fatalf("%s client %d: %v", codecName, id, err)
			}
		}
		if err := <-serverErr; err != nil {
			t.Fatalf("%s server: %v", codecName, err)
		}

		det := gnn.NewDetector(models[0], 3)
		det.FitClassifier(datasets[0])
		return gnn.EvaluateDetector(det, test).F1
	}

	rawF1 := runOnce(codec.Raw64)
	q8F1 := runOnce(codec.Q8)
	if d := math.Abs(rawF1 - q8F1); d > 0.02 {
		t.Fatalf("F1 drifted %.4f under q8 (raw64 %.4f, q8 %.4f), want within 2 points",
			d, rawF1, q8F1)
	}
}
