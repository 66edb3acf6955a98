package fed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// simulatorPin is the SHA-256 over TestSimulatorPinned's per-case digests,
// the same with and without -tags purego. It was c284d298… from commit
// b28078b (five hand-written round loops) until local training moved to one
// tape per optimiser step: the step sums its pairs' gradient terms in
// another order, so every trained weight's last bits moved, while every
// case's bytes, partition and cluster count stayed as they were.
const simulatorPin = "75aa54089b82e1a8e28d8ee170b731e69e6dfdc612c00235f65bb00c16d3dc6e"

// TestSimulatorPinned pins the in-process simulator end to end: for every
// algorithm under honest and Byzantine clients, two Eq. (3) gates (the
// second splits all three clustering algorithms) and 0 to 16 rounds, the
// hash covers every client's final weights bit for bit, the run's bytes,
// its final partition and its cluster count. A failing pin logs one
// digest a case: to find the case, run this file at the pinned commit,
// where the constructors were NewFexIoT(), FedAvg{} and ClientOnly{} and
// the bytes res.Comm.Total(), and compare the lines.
func TestSimulatorPinned(t *testing.T) {
	cases := []struct {
		attack, agg string
		eps1, eps2  float64
		rounds      int
	}{
		{"", "fedavg", 0.4, 0.95, 16},
		{"", "fedavg", 1.5, 0.5, 0},
		{"", "trimmed", 1.5, 0.5, 6},
		{"sign-flip", "krum", 1.5, 0.5, 4},
		{"replay", "normclip", 1.5, 0.5, 4},
		{"label-flip", "fedavg", 1.5, 0.5, 4},
		{"nan", "median", 0.4, 0.95, 3},
	}
	all := sha256.New()
	for _, tc := range cases {
		for _, algo := range []Algorithm{FexIoT(), GCFL(), FMTL(), FedAvg(), ClientOnly()} {
			// Fresh graphs a run: label-flip flips its client's labels.
			clients := NewClients(testBase(), splitFour(testGraphs(40)), 0.005)
			if tc.attack != "" {
				atk, err := NewAttack(tc.attack)
				if err != nil {
					t.Fatal(err)
				}
				MakeByzantine(clients[3], atk)
			}
			cfg := smallConfig()
			cfg.Rounds, cfg.Eps1, cfg.Eps2 = tc.rounds, tc.eps1, tc.eps2
			cfg.Train.PairsPerEpoch = 10
			if cfg.Aggregator, _ = NewAggregator(tc.agg); cfg.Aggregator == nil {
				t.Fatalf("aggregator %q", tc.agg)
			}
			res := algo.Run(clients, cfg)
			bytes, final := res.CommBytes, res.FinalClusters
			distinct := map[int]bool{}
			for _, id := range final {
				distinct[id] = true
			}

			h := sha256.New()
			for _, c := range clients {
				for _, v := range c.Model.Params().Flatten() {
					writeU64(h, math.Float64bits(v))
				}
			}
			writeU64(h, uint64(bytes))
			for _, id := range final {
				writeU64(h, uint64(id))
			}
			writeU64(h, uint64(len(distinct)))
			sum := h.Sum(nil)
			all.Write(sum)
			t.Logf("%-7s %-9s %-8s gate %.2g/%.2g rounds %d: bytes %d partition %v  %x",
				algo.Name(), tc.attack, tc.agg, tc.eps1, tc.eps2, tc.rounds, bytes, final, sum[:8])
		}
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != simulatorPin {
		t.Fatalf("simulator hash %s, pinned %s", got, simulatorPin)
	}
}

func writeU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
