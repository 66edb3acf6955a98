package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/chaos"
	"fexiot/internal/embed"
	"fexiot/internal/fed"
	"fexiot/internal/fedproto"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
)

// ChaosFederation demonstrates the fault-tolerant networked federation:
// four real GNN clients train over loopback TCP, one is hard-killed
// mid-federation through the fault-injection conn, and the run reports how
// the quorum rounds, eviction and rejoin machinery absorbed it. This is
// the availability counterpart of the accuracy experiments: the paper's
// federation assumes every household stays online, while testbed studies
// (Shen & Xue; FedIoT) report churn as the dominant failure mode.
func ChaosFederation(s Setup) *Table {
	const (
		clients = 4
		rounds  = 4
		quorum  = 0.75
		victim  = 3
	)

	enc := embed.NewEncoder(16, 24)
	pool := fusion.MultiHomePool(s.Seed+2, 20, 15, nil)
	b := fusion.NewBuilder(s.Seed+3, enc)
	// The Builder memoises internally and is not safe for concurrent use;
	// build every client's dataset up front.
	datasets := make([][]*graph.Graph, clients)
	for i := range datasets {
		datasets[i] = make([]*graph.Graph, 16)
		for k := range datasets[i] {
			datasets[i][k] = b.OfflineSized(pool)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t := &Table{Title: "Chaos: quorum federation under fault injection",
			Header: []string{"error", "detail"}}
		t.Add("listen", err.Error())
		return t
	}
	addr := ln.Addr().String()
	ln.Close()

	dim := fusion.WordFeatureDim(enc)
	base := gnn.NewGIN(dim, 8, 4, 100)
	gate := fed.DefaultConfig(s.Seed)
	srv := fedproto.NewServer(fedproto.ServerConfig{
		Addr:         addr,
		Clients:      clients,
		Rounds:       rounds,
		Eps1:         gate.Eps1,
		Eps2:         gate.Eps2,
		NumLayers:    base.Params().NumLayers(),
		RoundTimeout: 10 * time.Second,
		Quorum:       quorum,
		MaxStrikes:   1,
		Metrics:      s.Metrics,
	})
	var serverBytes int64
	var serverErr error
	serverDone := make(chan struct{})
	go func() {
		serverBytes, serverErr = srv.Run(context.Background())
		close(serverDone)
	}()

	sessions := make([]fedproto.SessionStats, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := base.Fresh(int64(id))
			m.Params().CopyFrom(base.Params())
			data := datasets[id]
			opt := autodiff.NewAdam(lr)
			cfg := gnn.DefaultTrainConfig(int64(id))
			cfg.PairsPerEpoch = 8

			var fc *chaos.Conn
			dials := 0
			killed := false
			clientCfg := fedproto.ClientConfig{
				Addr: addr, ID: id, DataSize: len(data),
				InitialBackoff: 5 * time.Millisecond,
				MaxBackoff:     50 * time.Millisecond,
				MaxAttempts:    20,
				OpTimeout:      30 * time.Second,
				Seed:           int64(id),
			}
			if id == victim {
				clientCfg.Dial = func(addr string) (net.Conn, error) {
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
				}
			}
			sessions[id], errs[id] = fedproto.RunClientSession(context.Background(), clientCfg, m.Params(),
				func(round int) map[int]float64 {
					if id == victim && round >= 1 && !killed {
						killed = true
						fc.Kill() // crash the household mid-federation
					}
					before := m.Params().Clone()
					cfg.Seed = int64(id*100 + round)
					gnn.TrainContrastive(m, data, cfg, opt)
					return fedproto.LayerNorms(before, m.Params())
				})
		}(id)
	}
	wg.Wait()
	<-serverDone

	st := srv.Stats()
	t := &Table{Title: "Chaos: quorum federation under fault injection",
		Header: []string{"setting", "value"}}
	t.Add("clients", fmt.Sprintf("%d", clients))
	t.Add("rounds configured", fmt.Sprintf("%d", rounds))
	t.Add("quorum", fmt.Sprintf("%.2f", quorum))
	t.Add("fault", fmt.Sprintf("client %d hard-killed at round 1", victim))
	if serverErr != nil {
		t.Add("server", "FAILED: "+serverErr.Error())
	} else {
		t.Add("server", "completed")
	}
	t.Add("rounds completed", fmt.Sprintf("%d", st.RoundsCompleted))
	t.Add("responders/round", fmt.Sprint(st.Responders))
	t.Add("evicted", fmt.Sprintf("%d", st.Evicted))
	t.Add("rejoined", fmt.Sprintf("%d", st.Rejoined))
	if errs[victim] == nil {
		t.Add("victim session", fmt.Sprintf("recovered (%d reconnects)", sessions[victim].Reconnects))
	} else {
		t.Add("victim session", "gave up: "+errs[victim].Error())
	}
	t.Add("bytes transferred", fmt.Sprintf("%d", serverBytes))
	return t
}
