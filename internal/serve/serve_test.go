package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"fexiot/internal/drift"
	"fexiot/internal/embed"
	"fexiot/internal/explain"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
)

// fixture builds a small trained detector + drift state + labelled graphs.
func fixture(seed int64) (*gnn.Detector, *drift.Detector, []*graph.Graph) {
	enc := embed.NewEncoder(24, 32)
	pool := fusion.MultiHomePool(3, 20, 22, nil)
	b := fusion.NewBuilder(seed, enc)
	gs := make([]*graph.Graph, 16)
	for i := range gs {
		gs[i] = b.OfflineSized(pool)
	}
	m := gnn.NewGIN(fusion.WordFeatureDim(enc), 12, 8, seed+1)
	det := gnn.NewDetector(m, 3)
	det.FitClassifier(gs)
	labels := make([]int, len(gs))
	for i, g := range gs {
		if g.Label {
			labels[i] = 1
		}
	}
	drf := drift.Fit(gnn.EmbedAll(m, gs), labels)
	return det, drf, gs
}

var searchCfg = explain.DefaultSearchConfig(7)

// TestSnapshotFrozenAgainstTraining pins the deep-freeze: after the
// snapshot is taken, retraining the original model and classifier must not
// change any verdict the snapshot produces.
func TestSnapshotFrozenAgainstTraining(t *testing.T) {
	det, drf, gs := fixture(5)
	snap := NewSnapshot(1, det, drf, searchCfg)
	detectAll := func() []Verdict {
		out := make([]Verdict, len(gs))
		for i, g := range gs {
			out[i] = snap.Detect(g)
		}
		return out
	}
	before := detectAll()

	// Clobber everything the snapshot was built from: fresh random weights,
	// a reversed-label classifier refit, and drift stats from junk.
	emb := gnn.EmbedAll(det.Model, gs)
	det.Model.Params().CopyFrom(det.Model.Fresh(99).Params())
	flipped := make([]int, len(gs))
	for i, g := range gs {
		if !g.Label {
			flipped[i] = 1
		}
	}
	det.Clf.Fit(emb, flipped)
	for i := range drf.Centroids {
		for j := range drf.Centroids[i] {
			drf.Centroids[i][j] += 100
		}
	}

	after := detectAll()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("snapshot verdicts changed after retraining the originals:\nbefore %+v\nafter  %+v",
			before[:2], after[:2])
	}
}

// TestSnapshotMatchesSourceBitIdentically pins publish fidelity: the
// frozen copy must score every graph exactly as the detector it was taken
// from — the "next request sees the new model bit-identically" contract.
func TestSnapshotMatchesSourceBitIdentically(t *testing.T) {
	det, drf, gs := fixture(8)
	snap := NewSnapshot(1, det, drf, searchCfg)
	for i, g := range gs {
		want := det.Clf.Score(gnn.Embed(det.Model, g))
		got := snap.Detect(g)
		if got.Score != want {
			t.Fatalf("graph %d: snapshot score %v != source score %v", i, got.Score, want)
		}
		z := gnn.Embed(det.Model, g)
		if got.DriftScore != drf.Anomaly(z) {
			t.Fatalf("graph %d: drift score diverged", i)
		}
	}
}

// TestStatsReportStartedPool pins that Stats describes the pool NewEngine
// started, not whatever the kernel parallelism bound has become since.
func TestStatsReportStartedPool(t *testing.T) {
	old := mat.Parallelism()
	defer mat.SetParallelism(old)
	e := NewEngine(Options{})
	defer e.Close()
	started := e.Stats()
	if started.Workers != old || started.QueueDepth != cap(e.reqs) {
		t.Fatalf("Stats = %d workers, queue depth %d; the pool has %d workers, queue cap %d",
			started.Workers, started.QueueDepth, old, cap(e.reqs))
	}
	mat.SetParallelism(old + 3)
	if got := e.Stats(); got.Workers != started.Workers || got.QueueDepth != started.QueueDepth {
		t.Fatalf("Stats drifted after SetParallelism: workers %d → %d, queue depth %d → %d",
			started.Workers, got.Workers, started.QueueDepth, got.QueueDepth)
	}
}

func TestEngineNotReadyThenServes(t *testing.T) {
	det, drf, gs := fixture(13)
	e := NewEngine(Options{Workers: 2})
	defer e.Close()

	if _, _, err := e.Detect(context.Background(), gs[0]); err != ErrNotReady {
		t.Fatalf("untrained engine returned %v, want ErrNotReady", err)
	}

	snap := NewSnapshot(1, det, drf, searchCfg)
	e.Publish(snap)
	v, seq, err := e.Detect(context.Background(), gs[0])
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	if want := snap.Detect(gs[0]); v != want {
		t.Fatalf("engine verdict %+v != snapshot verdict %+v", v, want)
	}
}

func TestEngineClosedAndCancelled(t *testing.T) {
	det, drf, gs := fixture(17)
	e := NewEngine(Options{Workers: 1})
	e.Publish(NewSnapshot(1, det, drf, searchCfg))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Detect(ctx, gs[0]); err != context.Canceled {
		t.Fatalf("cancelled request returned %v, want context.Canceled", err)
	}

	e.Close()
	if _, _, err := e.Detect(context.Background(), gs[0]); err != ErrClosed {
		t.Fatalf("closed engine returned %v, want ErrClosed", err)
	}
}

// TestSwapMidStormNeverTears is the snapshot-isolation core: a storm of
// concurrent Detects runs while a new model is published mid-flight. Every
// response must be wholly consistent with exactly one snapshot — the
// sequence number it reports must predict its score bit-exactly.
func TestSwapMidStormNeverTears(t *testing.T) {
	detA, drfA, gs := fixture(19)
	detB, drfB, _ := fixture(23) // independently trained second model
	snapA := NewSnapshot(1, detA, drfA, searchCfg)
	snapB := NewSnapshot(2, detB, drfB, searchCfg)

	g := gs[0]
	wantA := snapA.Detect(g)
	wantB := snapB.Detect(g)
	if wantA.Score == wantB.Score {
		t.Fatal("fixture models agree on the probe graph; tear detection is vacuous")
	}

	e := NewEngine(Options{Workers: 4})
	defer e.Close()
	e.Publish(snapA)

	const goroutines = 8
	const perG = 25
	var sawB sync.WaitGroup
	sawB.Add(1)
	var once sync.Once
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				v, seq, err := e.Detect(context.Background(), g)
				if err != nil {
					errs <- err
					return
				}
				var want Verdict
				switch seq {
				case 1:
					want = wantA
				case 2:
					want = wantB
					once.Do(sawB.Done)
				default:
					errs <- fmt.Errorf("unknown snapshot seq %d", seq)
					return
				}
				if v != want {
					errs <- fmt.Errorf("torn verdict: seq %d returned %+v, want %+v", seq, v, want)
					return
				}
			}
		}()
	}
	// Publish the swap while the storm is in flight.
	time.Sleep(2 * time.Millisecond)
	e.Publish(snapB)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// After the swap every new request must see model B.
	if _, seq, err := e.Detect(context.Background(), g); err != nil || seq != 2 {
		t.Fatalf("post-swap request: seq %d err %v, want seq 2", seq, err)
	}
}

// TestEngineCorrectUnderLoad floods the engine with mixed-shape graphs and
// checks every verdict is bit-identical to the direct snapshot path — the
// one flood that checks values, not just the absence of tearing.
func TestEngineCorrectUnderLoad(t *testing.T) {
	det, drf, gs := fixture(29)
	snap := NewSnapshot(1, det, drf, searchCfg)
	// The queue should hold the whole storm: this test is about verdicts,
	// not overload. Size it generously; under -race the workers run slowly
	// enough that a legal ErrOverloaded shed is still possible, so callers
	// below back off and retry as real clients would.
	e := NewEngine(Options{Workers: 2, QueueDepth: 256})
	defer e.Close()
	e.Publish(snap)

	// Mixed shapes: each worker's workspace is reused across node counts.
	want := make([]Verdict, len(gs))
	for i, g := range gs {
		want[i] = snap.Detect(g)
	}
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(gs))
	for r := 0; r < rounds; r++ {
		for i := range gs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var v Verdict
				var err error
				for attempt := 0; attempt < 50; attempt++ {
					v, _, err = e.Detect(context.Background(), gs[i])
					if !errors.Is(err, ErrOverloaded) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					errs <- err
					return
				}
				if v != want[i] {
					errs <- fmt.Errorf("graph %d: engine verdict %+v != %+v", i, v, want[i])
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentExplainDeterministic runs the explanation search from many
// goroutines at once: with per-call seeded generators, every result must
// be identical (and race-free under -race).
func TestConcurrentExplainDeterministic(t *testing.T) {
	det, drf, gs := fixture(31)
	snap := NewSnapshot(1, det, drf, searchCfg)
	var probe *graph.Graph
	for _, g := range gs {
		if g.N() >= 6 {
			probe = g
			break
		}
	}
	if probe == nil {
		t.Skip("no graph large enough to explain")
	}
	want := snap.Explain(probe)
	const goroutines = 8
	results := make([]Explanation, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = snap.Explain(probe)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("goroutine %d explanation diverged:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// BenchmarkServeThroughput measures request throughput against worker
// count; the acceptance bar is ≥2× req/s from 1→4 workers on multi-core
// hosts (single-core hosts see flat, not regressed, throughput).
func BenchmarkServeThroughput(b *testing.B) {
	det, drf, gs := fixture(37)
	snap := NewSnapshot(1, det, drf, searchCfg)
	g := gs[0]
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewEngine(Options{Workers: workers, QueueDepth: 64})
			e.Publish(snap)
			defer e.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, _, err := e.Detect(ctx, g); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			reqPerSec := float64(b.N) / b.Elapsed().Seconds()
			if !math.IsInf(reqPerSec, 0) {
				b.ReportMetric(reqPerSec, "req/s")
			}
		})
	}
}
