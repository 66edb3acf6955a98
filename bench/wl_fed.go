package main

// fed_round: the paper's Algorithm 1 on a real wire — fedproto.NewServer
// plus four fedproto.RunClientSession clients over loopback TCP (four
// allows a 2+2 layer-wise split; quorum 1.0, no faults), GIN at the
// paper's dimensions (300/512 encoders, hidden 64, embedding 32: 54,400
// parameters, ≈435 KB per raw update), 24 offline graphs of 6–29 nodes per client.
// It is a closed system with a barrier per round; a round is timed between
// consecutive ServerConfig.OnRoundComplete calls.
//
// Phase `train` (codec raw64, FedAvg, 10 contrastive pairs a round) is
// dominated by local training — gnn, autodiff, mat — and gives op_p50_ms
// (round_p50_ms) and cpu_ms_per_op. Phase `comm` (codec q8, trimmed-mean
// aggregation, 2 pairs a round) is dominated by codec, gob wire,
// gate/cluster and aggregation, and gives sat_ops_per_s in rounds/s
// (1000 / comm_round_p50_ms). A training-kernel change should move the
// first and not the second; a codec, aggregator or round-core change the
// reverse.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fed"
	"fexiot/internal/fedproto"
	"fexiot/internal/fedproto/codec"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
)

const (
	fedClients      = 4
	fedGraphs       = 24
	fedTrainPairs   = 10
	fedCommPairs    = 2
	fedInitSeed     = 100 // every client starts from the same initial model, as cmd/fexclient does
	fedClientRuleSz = 50
	fedMinPerSlice  = 4 // rounds a one-second slice needs to count
)

type fedEnv struct {
	seed    int64
	inDim   int
	data    [fedClients][]*graph.Graph
	outDir  string
	trimmed fed.Aggregator
}

func setupFed(c runCfg) (env, error) {
	enc := embed.NewEncoder(paperDims.word, paperDims.sentence)
	e := &fedEnv{seed: c.seed, inDim: fusion.WordFeatureDim(enc), outDir: c.outDir}
	var err error
	if e.trimmed, err = fed.NewAggregator("trimmed"); err != nil {
		return nil, err
	}
	// One client is one household: its own archetype, rule pool and graph
	// builder, so the clients hold non-i.i.d. data (§IV-C).
	archs := rules.Archetypes()
	for id := range e.data {
		s := mix(c.seed, 7, id)
		pool := rules.NewGenerator(s, archs[id%len(archs)], fmt.Sprintf("c%d-", id)).RuleSet(fedClientRuleSz)
		b := fusion.NewBuilder(s+1, enc)
		// Builder.OfflineSized would draw each size; sizes 6…29 are fixed
		// instead (same range, the paper's ≈18-node mean), so a round's
		// training cost does not depend on the seed's luck.
		for i := 0; i < fedGraphs; i++ {
			e.data[id] = append(e.data[id], b.Offline(pool, 6+i))
		}
	}
	// Warm-up: one short federation of each kind, so the timed ones find
	// the arenas filled and every code path already run once.
	for _, p := range []fedPlan{
		{codec: codec.Raw64, pairs: fedTrainPairs, rounds: 2},
		{codec: codec.Q8, agg: e.trimmed, pairs: fedCommPairs, rounds: 2},
	} {
		if _, err := e.federate(p); err != nil {
			return nil, fmt.Errorf("warm-up federation: %w", err)
		}
	}
	return e, nil
}

func (e *fedEnv) close() {}

func (e *fedEnv) newModel() gnn.Model {
	return gnn.NewGIN(e.inDim, paperDims.hidden, paperDims.embed, fedInitSeed)
}

// fedPlan configures one federation.
type fedPlan struct {
	codec  string
	agg    fed.Aggregator // nil = FedAvg
	pairs  int
	rounds int
}

// fedRun is what one federation measured.
type fedRun struct {
	roundMS    []float64 // time between consecutive OnRoundComplete calls
	cpuMS      []float64 // process CPU between the same calls
	at         []float64 // when each timed round ended, seconds since the first call
	localMS    []float64 // per timed round, the slowest client's local training
	upBytes    int64     // client → server, all clients, whole session
	downBytes  int64
	wireBytes  int64 // server's own tally, both directions
	rounds     int
	responders []int
	global     []fedproto.LayerPayload
}

// federate runs one federation to completion over loopback TCP.
func (e *fedEnv) federate(p fedPlan) (fedRun, error) {
	var run fedRun
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return run, err
	}
	addr := ln.Addr().String()
	ln.Close() // fedproto.Server listens itself; the port stays ours in practice

	var mu sync.Mutex
	var stamps []time.Time
	var cpuAt []time.Duration
	local := make([][]time.Duration, fedClients) // [client][round]
	proto := e.newModel()
	srv := fedproto.NewServer(fedproto.ServerConfig{
		Addr: addr, Clients: fedClients, Rounds: p.rounds, Eps1: 0.4, Eps2: 0.95,
		NumLayers: proto.Params().NumLayers(), Quorum: 1, RoundTimeout: time.Minute,
		Aggregator: p.agg, Codec: p.codec,
		OnRoundComplete: func(round int, global []fedproto.LayerPayload) {
			mu.Lock()
			stamps = append(stamps, time.Now())
			cpuAt = append(cpuAt, processCPU())
			run.global = global
			mu.Unlock()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srvErr := make(chan error, 1)
	go func() {
		n, err := srv.Run(ctx)
		run.wireBytes = n
		srvErr <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.Ready() != nil; {
		if time.Now().After(deadline) {
			return run, errors.New("federation server did not start listening")
		}
		time.Sleep(time.Millisecond)
	}

	errs := make([]error, fedClients)
	stats := make([]fedproto.SessionStats, fedClients)
	var wg sync.WaitGroup
	for id := 0; id < fedClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			seed := mix(e.seed, 8, id)
			model := e.newModel()
			opt := autodiff.NewAdam(0.005)
			cfg := gnn.DefaultTrainConfig(seed)
			cfg.LR = 0.005
			cfg.PairsPerEpoch = p.pairs
			stats[id], errs[id] = fedproto.RunClientSession(ctx, fedproto.ClientConfig{
				Addr: addr, ID: id, DataSize: len(e.data[id]), Seed: seed,
			}, model.Params(), func(round int) map[int]float64 {
				t := time.Now()
				before := model.Params().Clone()
				cfg.Seed = seed + int64(round)
				gnn.TrainContrastive(model, e.data[id], cfg, opt)
				norms := fedproto.LayerNorms(before, model.Params())
				local[id] = append(local[id], time.Since(t))
				return norms
			})
		}(id)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		cancel()
		<-srvErr
		return run, err
	}
	if err := <-srvErr; err != nil {
		return run, err
	}

	st := srv.Stats()
	run.rounds, run.responders = st.RoundsCompleted, st.Responders
	for _, s := range stats {
		run.upBytes += s.OutBytes
		run.downBytes += s.InBytes
	}
	for i := 1; i < len(stamps); i++ {
		run.roundMS = append(run.roundMS, float64(stamps[i].Sub(stamps[i-1]))/1e6)
		run.cpuMS = append(run.cpuMS, float64(cpuAt[i]-cpuAt[i-1])/1e6)
		run.at = append(run.at, stamps[i].Sub(stamps[0]).Seconds())
		slowest := time.Duration(0)
		for id := range local {
			if i < len(local[id]) && local[id][i] > slowest {
				slowest = local[id][i]
			}
		}
		run.localMS = append(run.localMS, float64(slowest)/1e6)
	}
	return run, nil
}

// check is the correctness gate of one federation.
func (r fedRun) check(res *result, p fedPlan) {
	if r.rounds != p.rounds {
		res.fail("federation completed %d of %d rounds", r.rounds, p.rounds)
	}
	for i, n := range r.responders {
		if n != fedClients {
			res.fail("round %d had %d of %d responders", i, n, fedClients)
		}
	}
	for _, pl := range r.global {
		for _, d := range pl.Data {
			if !finite(d...) {
				res.fail("global model is not finite")
				return
			}
		}
	}
	if len(r.global) == 0 {
		res.fail("no global model published")
	}
}

// hash is the SHA-256 of the global model's tensors.
func (r fedRun) hash() [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	for _, pl := range r.global {
		for _, d := range pl.Data {
			for _, x := range d {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// timed runs federations of plan p for about budget: a short one to learn
// the round time, then one sized to fill what is left. Both contribute
// rounds.
func (e *fedEnv) timed(res *result, p fedPlan, calib int, budget time.Duration) fedRun {
	t0 := time.Now()
	p.rounds = calib
	first, err := e.federate(p)
	if err != nil {
		res.fail("federation: %v", err)
		return first
	}
	first.check(res, p)
	res.attempted += p.rounds
	per := time.Since(t0) / time.Duration(calib)
	p.rounds = int((budget - time.Since(t0)) / per)
	if p.rounds < 3 {
		return first
	}
	second, err := e.federate(p)
	if err != nil {
		res.fail("federation: %v", err)
		return first
	}
	second.check(res, p)
	res.attempted += p.rounds
	// The second federation's rounds follow the first's on one time axis,
	// a whole second later so the two never share a slice.
	shift := math.Ceil(first.at[len(first.at)-1]) + 1
	for i := range second.at {
		second.at[i] += shift
	}
	second.roundMS = append(first.roundMS, second.roundMS...)
	second.cpuMS = append(first.cpuMS, second.cpuMS...)
	second.at = append(first.at, second.at...)
	second.localMS = append(first.localMS, second.localMS...)
	return second
}

func (e *fedEnv) run(c runCfg) result {
	res := result{e2e: map[string]float64{}, named: map[string]float64{}}
	e.phases(c, &res, 0.6, 0.4)
	e.checkDeterminism(&res)
	return res
}

// phases runs the train and comm phases for the given shares of the run.
func (e *fedEnv) phases(c runCfg, res *result, trainShare, commShare float64) (train, comm fedRun) {
	train = e.timed(res, fedPlan{codec: codec.Raw64, pairs: fedTrainPairs}, 3, c.dur(trainShare))
	comm = e.timed(res, fedPlan{codec: codec.Q8, agg: e.trimmed, pairs: fedCommPairs}, 8, c.dur(commShare))
	if len(train.roundMS) == 0 || len(comm.roundMS) == 0 {
		res.fail("no timed rounds")
		return
	}
	// The median round of each second, and the quiet quartile of those
	// (stats.go): a stretch of slow rounds moves its seconds, not the number.
	res.e2e["op_p50_ms"] = sliceQuiet(train.roundMS, train.at, 1, fedMinPerSlice, 50)[0]
	res.e2e["cpu_ms_per_op"] = sliceQuiet(train.cpuMS, train.at, 1, fedMinPerSlice, 50)[0]
	res.named["comm_round_p50_ms"] = sliceQuiet(comm.roundMS, comm.at, 1, fedMinPerSlice, 50)[0]
	res.e2e["sat_ops_per_s"] = 1000 / res.named["comm_round_p50_ms"]
	res.named["op_p95_ms"] = percentile(sortedCopy(train.roundMS), 95)
	res.named["round_p50_ms"] = res.e2e["op_p50_ms"]
	return train, comm
}

// pinnedRounds is the length of the q8 session the exact byte counts come
// from.
const pinnedRounds = 6

// checkDeterminism holds: two same-seed raw64 federations end in the same
// global model, bit for bit.
func (e *fedEnv) checkDeterminism(res *result) {
	p := fedPlan{codec: codec.Raw64, pairs: fedCommPairs, rounds: 3}
	a, err1 := e.federate(p)
	b, err2 := e.federate(p)
	if err1 != nil || err2 != nil {
		res.fail("determinism federations: %v %v", err1, err2)
		return
	}
	if a.hash() != b.hash() {
		res.fail("two same-seed raw64 federations ended in different global models")
	}
}

func (e *fedEnv) trace(c runCfg, rec *recorder) (map[string]float64, result) {
	layer := map[string]float64{}
	res := result{e2e: map[string]float64{}, named: map[string]float64{}}
	pm := startProc()
	train, comm := e.phases(c, &res, 0.35, 0.15)
	pm.into(layer, res.attempted)
	e.checkDeterminism(&res)
	if len(train.roundMS) == 0 || len(comm.roundMS) == 0 {
		return layer, res
	}
	layer["fed.local_train_ms"] = median(train.localMS)
	share := make([]float64, len(comm.roundMS))
	for i := range share {
		share[i] = comm.roundMS[i] - comm.localMS[i]
	}
	layer["fedproto.server_share_ms"] = median(share)

	// Exact-count pins: a fixed-length q8 session, twice. (Round 0 of a q8
	// session has no shared base and goes dense, so bytes per round depend
	// on the session's length; the timed sessions' lengths vary.)
	pin := fedPlan{codec: codec.Q8, agg: e.trimmed, pairs: fedCommPairs, rounds: pinnedRounds}
	a, err1 := e.federate(pin)
	b, err2 := e.federate(pin)
	if err1 != nil || err2 != nil {
		res.fail("pinned federations: %v %v", err1, err2)
	} else {
		layer["fedproto.bytes_up_per_round"] = float64(a.upBytes) / float64(pinnedRounds)
		layer["fedproto.bytes_down_per_round"] = float64(a.downBytes) / float64(pinnedRounds)
		res.named["wire_bytes_per_round"] = float64(a.wireBytes) / float64(pinnedRounds)
		if a.upBytes != b.upBytes || a.wireBytes != b.wireBytes {
			res.fail("wire bytes differ between two same-seed sessions: up %d vs %d, total %d vs %d",
				a.upBytes, b.upBytes, a.wireBytes, b.wireBytes)
		}
	}

	e.layerProbes(layer, &res, rec, a.global)
	return layer, res
}

// layerProbes times the federation's layers one call at a time, on the
// workload's real model: training pairs, codecs, aggregators, checkpoint.
func (e *fedEnv) layerProbes(layer map[string]float64, res *result, rec *recorder, global []fedproto.LayerPayload) {
	model := e.newModel()
	gs := e.data[0]

	// gnn: one local round ÷ its pairs, traced and untraced.
	trainRound := func(rec *recorder, op int) time.Duration {
		m := e.newModel()
		opt := autodiff.NewAdam(0.005)
		cfg := gnn.DefaultTrainConfig(e.seed)
		cfg.LR = 0.005
		cfg.PairsPerEpoch = fedTrainPairs
		t := time.Now()
		for i := 0; i < 8; i++ {
			cfg.Seed = e.seed + int64(i)
			rec.call("gnn.train_round", -1, op+i, func() { gnn.TrainContrastive(m, gs, cfg, opt) })
		}
		return time.Since(t)
	}
	plain := trainRound(nil, 0)
	traced := trainRound(rec, 0)
	layer["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()
	layer["gnn.train_pair_us"] = median(rec.durationsUS("gnn.train_round")) / fedTrainPairs
	pairProbes(layer, model, gs, 200)
	ws := gnn.NewWorkspace()
	layer["gnn.embed_us"] = timeUS(400, func() { ws.Embed(model, gs[0]) })
	matProbes(layer, medianGraph(gs), e.inDim, paperDims.hidden)

	// codec: encode and decode every tensor of the model, per scheme.
	var tensors [][]float64
	for _, name := range model.Params().Names() {
		tensors = append(tensors, model.Params().Get(name).Data())
	}
	var rawBytes, q8Bytes int64
	for _, scheme := range []string{codec.Raw64, codec.Q8, codec.TopK} {
		cd, err := codec.New(scheme)
		if err != nil {
			res.fail("codec %s: %v", scheme, err)
			continue
		}
		enc := make([]codec.Tensor, len(tensors))
		layer["codec.encode_us."+scheme] = spanUS(rec, "codec.encode."+scheme, 30, func() {
			for i, v := range tensors {
				enc[i] = cd.Encode(v)
			}
		})
		layer["codec.decode_us."+scheme] = spanUS(rec, "codec.decode."+scheme, 30, func() {
			for _, t := range enc {
				if _, err := cd.Decode(t); err != nil {
					panic(err) // decoding what was just encoded
				}
			}
		})
		for _, t := range enc {
			switch scheme {
			case codec.Raw64:
				rawBytes += t.WireBytes()
			case codec.Q8:
				q8Bytes += t.WireBytes()
			}
		}
	}
	if q8Bytes > 0 {
		layer["codec.ratio_q8"] = float64(rawBytes) / float64(q8Bytes)
	}

	// fed: aggregate four parameter sets.
	sets := make([]*autodiff.ParamSet, fedClients)
	weights := make([]float64, fedClients)
	for i := range sets {
		sets[i] = gnn.NewGIN(e.inDim, paperDims.hidden, paperDims.embed, int64(i+1)).Params()
		weights[i] = fedGraphs
	}
	dst := model.Params().Clone()
	layer["fed.aggregate_ms.fedavg"] = spanUS(rec, "fed.aggregate.fedavg", 30,
		func() { fed.AggregateParams(fed.MeanAgg{}, dst, sets, weights) }) / 1e3
	layer["fed.aggregate_ms.trimmed"] = spanUS(rec, "fed.aggregate.trimmed", 30,
		func() { fed.AggregateParams(e.trimmed, dst, sets, weights) }) / 1e3

	// fedproto: checkpoint the global model.
	dir := filepath.Join(e.outDir, "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.fail("checkpoint dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	ck := &fedproto.Checkpoint{Round: 1, Global: global}
	var ckErr error
	layer["fedproto.checkpoint_ms"] = spanUS(rec, "fedproto.checkpoint", 10, func() {
		if err := fedproto.SaveCheckpoint(filepath.Join(dir, "fed.ckpt"), ck); err != nil {
			ckErr = err
		}
	}) / 1e3
	if ckErr != nil {
		res.fail("checkpoint: %v", ckErr)
	}
}
