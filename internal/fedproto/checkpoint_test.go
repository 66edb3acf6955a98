package fedproto

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/chaos"
)

// testCheckpoint builds a small but fully-populated snapshot.
func testCheckpoint(round int) *Checkpoint {
	p := scriptParams()
	return &Checkpoint{
		Round:   round,
		Shapes:  [][][2]int{{{1, 2}}, {{1, 2}}},
		Names:   [][]string{{"l0.w"}, {"l1.w"}},
		Global:  EncodeLayers(p, []int{0, 1}, zeroNorms(p)),
		Strikes: map[int]int{1: 2},
		Stats:   ServerStats{RoundsCompleted: round, Responders: []int{2, 2}},
	}
}

// corrupt flips one byte at offset from the end of the file.
func corrupt(t *testing.T, path string, fromEnd int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-fromEnd] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRotationKeepsPrev: the second save retires the first
// snapshot to .prev, and both files load.
func TestCheckpointRotationKeepsPrev(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fed.ckpt")
	if err := SaveCheckpoint(path, testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + PrevSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("first save created a .prev: %v", err)
	}
	if err := SaveCheckpoint(path, testCheckpoint(2)); err != nil {
		t.Fatal(err)
	}
	latest, err := LoadCheckpoint(path)
	if err != nil || latest.Round != 2 {
		t.Fatalf("latest = %+v, %v; want round 2", latest, err)
	}
	prev, err := LoadCheckpoint(path + PrevSuffix)
	if err != nil || prev.Round != 1 {
		t.Fatalf("prev = %+v, %v; want round 1", prev, err)
	}
	ck, from, err := LoadLatestCheckpoint(path)
	if err != nil || from != path || ck.Round != 2 {
		t.Fatalf("LoadLatest = round %d from %q, %v; want 2 from latest", ck.Round, from, err)
	}
}

// TestCheckpointCorruptionMatrix is the satellite matrix: bit-flip in the
// body, bit-flip in the footer, truncation, a footer-less file, and
// both-files-corrupt — every case rolls back to the previous good snapshot
// or reports the corruption, and none ever panics.
func TestCheckpointCorruptionMatrix(t *testing.T) {
	save2 := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "fed.ckpt")
		if err := SaveCheckpoint(path, testCheckpoint(1)); err != nil {
			t.Fatal(err)
		}
		if err := SaveCheckpoint(path, testCheckpoint(2)); err != nil {
			t.Fatal(err)
		}
		return path
	}

	t.Run("bit-flip in body rolls back", func(t *testing.T) {
		path := save2(t)
		corrupt(t, path, ckptFooterSize+10) // inside the gob body
		if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("corrupt body loaded: %v", err)
		}
		ck, from, err := LoadLatestCheckpoint(path)
		if err != nil || ck.Round != 1 || from != path+PrevSuffix {
			t.Fatalf("rollback = round %d from %q, %v; want 1 from .prev", ck.Round, from, err)
		}
	})

	t.Run("bit-flip in hash footer rolls back", func(t *testing.T) {
		path := save2(t)
		corrupt(t, path, len(ckptMagic)+5) // inside the sha256 footer
		if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("corrupt footer loaded: %v", err)
		}
		ck, _, err := LoadLatestCheckpoint(path)
		if err != nil || ck.Round != 1 {
			t.Fatalf("rollback = %+v, %v; want round 1", ck, err)
		}
	})

	t.Run("truncation rolls back", func(t *testing.T) {
		path := save2(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("truncated file loaded: %v", err)
		}
		ck, _, err := LoadLatestCheckpoint(path)
		if err != nil || ck.Round != 1 {
			t.Fatalf("rollback = %+v, %v; want round 1", ck, err)
		}
	})

	t.Run("footer-less file is rejected and rolls back", func(t *testing.T) {
		// A torn final write: the gob body landed, the footer did not.
		path := save2(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)-ckptFooterSize], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("footer-less file loaded: %v", err)
		}
		ck, from, err := LoadLatestCheckpoint(path)
		if err != nil || ck.Round != 1 || from != path+PrevSuffix {
			t.Fatalf("rollback = round %d from %q, %v; want 1 from .prev", ck.Round, from, err)
		}
	})

	t.Run("both corrupt errors without panic", func(t *testing.T) {
		path := save2(t)
		corrupt(t, path, ckptFooterSize+10)
		corrupt(t, path+PrevSuffix, ckptFooterSize+10)
		_, _, err := LoadLatestCheckpoint(path)
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("both-corrupt = %v, want ErrCheckpointCorrupt", err)
		}
		if errors.Is(err, fs.ErrNotExist) {
			t.Fatal("corruption misreported as a missing file")
		}
	})

	t.Run("missing files are a fresh federation", func(t *testing.T) {
		_, _, err := LoadLatestCheckpoint(filepath.Join(t.TempDir(), "none"))
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("missing = %v, want fs.ErrNotExist", err)
		}
	})
}

// TestCheckpointTransientDiskFaultRetried: a flaky disk that fails a few
// operations is ridden out by the server's bounded retry — the round's
// checkpoint lands despite the injected faults.
func TestCheckpointTransientDiskFaultRetried(t *testing.T) {
	ffs := chaos.NewFaultFS(nil)
	restore := SetCheckpointFS(ffs)
	defer restore()

	path := filepath.Join(t.TempDir(), "fed.ckpt")
	srv := NewServer(ServerConfig{CheckpointPath: path, NumLayers: 2})
	srv.mu.Lock()
	srv.global = testCheckpoint(3).Global
	srv.shapes = [][][2]int{{{1, 2}}, {{1, 2}}}
	srv.names = [][]string{{"l0.w"}, {"l1.w"}}
	srv.mu.Unlock()

	ffs.FailWrites(2) // two attempts die mid-write, the third lands
	if err := srv.ckptRetry(3); err != nil {
		t.Fatalf("retry did not ride out the flaky disk: %v", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil || ck.Round != 3 {
		t.Fatalf("checkpoint after retry = %+v, %v", ck, err)
	}

	// A disk that stays dead exhausts the budget and reports the fault.
	ffs.FailWrites(1000)
	if err := srv.ckptRetry(4); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("dead disk error = %v, want ErrInjected", err)
	}
}

// TestServerResumesFromPrevAfterCorruptLatest is the kill/corrupt
// acceptance e2e: a checkpointing federation is stopped, its latest
// snapshot bit-flipped, and the restarted server resumes from the previous
// good snapshot — finishing the federation instead of failing startup.
func TestServerResumesFromPrevAfterCorruptLatest(t *testing.T) {
	const nClients, rounds = 2, 4
	ckpt := filepath.Join(t.TempDir(), "fed.ckpt")
	addr := freeAddr(t)
	cfg := func(addr string) ServerConfig {
		return ServerConfig{
			Addr: addr, Clients: nClients, Rounds: rounds, NumLayers: 2,
			Quorum: 1, RoundTimeout: 5 * time.Second,
			Eps1: 0.4, Eps2: 0.95,
			CheckpointPath: ckpt, CheckpointEvery: 1,
		}
	}

	srv1 := NewServer(cfg(addr))
	done1 := make(chan error, 1)
	go func() { _, err := srv1.Run(context.Background()); done1 <- err }()

	params := make([]*autodiff.ParamSet, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for id := 0; id < nClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := scriptParams()
			params[id] = p
			_, errs[id] = RunClientSession(context.Background(), ClientConfig{
				Addr: addr, ID: id, DataSize: 10,
				InitialBackoff: 10 * time.Millisecond,
				MaxBackoff:     50 * time.Millisecond,
				MaxAttempts:    200,
				OpTimeout:      5 * time.Second,
				Seed:           int64(id),
			}, p, func(round int) map[int]float64 {
				time.Sleep(20 * time.Millisecond)
				addDelta(p, float64(id+1)*0.1)
				return zeroNorms(p)
			})
		}(id)
	}

	// Let at least two rounds close so both .ckpt and .ckpt.prev exist.
	deadline := time.Now().Add(15 * time.Second)
	for srv1.Stats().RoundsCompleted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("federation never reached round 2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Stop()
	select {
	case <-done1:
	case <-time.After(10 * time.Second):
		t.Fatal("stopped server did not return")
	}

	// Corrupt the latest snapshot's body: the restart must fall back to
	// .prev (one round earlier) instead of dying on startup.
	if _, err := os.Stat(ckpt + PrevSuffix); err != nil {
		t.Fatalf(".prev missing before corruption: %v", err)
	}
	corrupt(t, ckpt, ckptFooterSize+10)
	prevCk, err := LoadCheckpoint(ckpt + PrevSuffix)
	if err != nil {
		t.Fatalf(".prev unreadable: %v", err)
	}

	srv2 := NewServer(cfg(addr))
	done2 := make(chan error, 1)
	go func() { _, err := srv2.Run(context.Background()); done2 <- err }()

	wg.Wait()
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("resumed server: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("resumed server did not finish")
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	// The resume point must be the previous good snapshot, so the restarted
	// server replays the round the corrupted checkpoint had covered.
	srv2.mu.Lock()
	resumed := srv2.startRound
	srv2.mu.Unlock()
	if resumed != prevCk.Round {
		t.Fatalf("resumed at round %d, want .prev's round %d", resumed, prevCk.Round)
	}
	// Both clients converged to identical models — the replayed round kept
	// the federation consistent.
	a, b := params[0].Flatten(), params[1].Flatten()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clients diverged at element %d: %v vs %v", i, a[i], b[i])
		}
	}
}
