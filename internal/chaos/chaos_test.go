package chaos

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestPlanDeterministic: equal seeds replay the exact same decision
// stream; different seeds diverge.
func TestPlanDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		p := NewPlan(seed)
		out := make([]int, 32)
		for i := range out {
			out[i] = p.Intn(1000)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 draw %d: %d vs %d — plan is not deterministic", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical streams")
	}
	p := NewPlan(7)
	for i := 0; i < 1000; i++ {
		if f := p.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if d := p.Duration(time.Millisecond, time.Second); d < time.Millisecond || d >= time.Second {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
}

// TestPanicOnCall pins the scheduled-crash hook: exactly the nth call
// panics, all others (including post-fire) are no-ops, concurrently safe.
func TestPanicOnCall(t *testing.T) {
	hook := PanicOnCall(3, "scheduled")
	fire := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		hook()
		return false
	}
	if fire() || fire() {
		t.Fatal("hook fired before its scheduled call")
	}
	if !fire() {
		t.Fatal("hook did not fire on call 3")
	}
	if fire() {
		t.Fatal("hook fired twice")
	}

	// Concurrent hammering fires exactly once.
	hook = PanicOnCall(50, "concurrent")
	var fired sync.Map
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if recover() != nil {
					fired.Store(i, true)
				}
			}()
			hook()
		}(i)
	}
	wg.Wait()
	n := 0
	fired.Range(func(_, _ any) bool { n++; return true })
	if n != 1 {
		t.Fatalf("hook fired %d times, want exactly 1", n)
	}
}

// TestFaultFSArmsAndHeals: armed budgets fail with ErrInjected for exactly
// n operations, then the disk heals and a full write cycle succeeds on the
// real filesystem underneath.
func TestFaultFSArmsAndHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(nil)

	writeCycle := func() error {
		f, err := ffs.CreateTemp(dir, "ckpt*")
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("payload")); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return ffs.Rename(f.Name(), filepath.Join(dir, "final"))
	}

	ffs.FailWrites(1)
	if err := writeCycle(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed write failed with %v, want ErrInjected", err)
	}
	ffs.FailSyncs(1)
	if err := writeCycle(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed sync failed with %v, want ErrInjected", err)
	}
	ffs.FailRenames(1)
	if err := writeCycle(); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed rename failed with %v, want ErrInjected", err)
	}
	// Healed: everything passes through to the real disk.
	if err := writeCycle(); err != nil {
		t.Fatalf("healed cycle failed: %v", err)
	}
	data, err := ffs.ReadFile(filepath.Join(dir, "final"))
	if err != nil || string(data) != "payload" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if ffs.Writes() < 4 || ffs.Renames() < 2 {
		t.Fatalf("op counters writes=%d renames=%d, want ≥4/≥2", ffs.Writes(), ffs.Renames())
	}
	if _, err := os.Stat(filepath.Join(dir, "final")); err != nil {
		t.Fatalf("final file missing: %v", err)
	}
}

// TestConnFaults pins the three link faults on a real TCP pair: delay
// slows reads, DropAfter swallows writes past its budget while reporting
// success, Kill surfaces as a peer-visible close.
func TestConnFaults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fc := NewConn(raw)
	defer fc.Close()
	peer := <-accepted
	defer peer.Close()

	// Delay: a read waits out the configured latency first.
	fc.SetDelay(50 * time.Millisecond)
	if _, err := peer.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	start := time.Now()
	if _, err := fc.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("read returned after %v, want ≥ ~50ms delay", d)
	}
	fc.SetDelay(0)

	// Partial budget: the first 3 bytes of a 5-byte write get through, the
	// sender is told all 5 did.
	fc.DropAfter(3)
	if n, err := fc.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("budgeted write = %d, %v; want 5, nil — the sender must not notice", n, err)
	}
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := io.ReadFull(peer, buf[:3]); err != nil || string(buf[:n]) != "hel" {
		t.Fatalf("peer read %q, %v; want the 3-byte budget", buf[:n], err)
	}

	// Blackhole: writes report full success but the peer sees nothing.
	fc.DropAfter(0)
	if n, err := fc.Write([]byte("swallowed")); n != 9 || err != nil {
		t.Fatalf("blackholed write = %d, %v; want 9, nil", n, err)
	}
	peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := peer.Read(buf); err == nil {
		t.Fatalf("peer read %d bytes through a blackhole", n)
	}

	// Disarm and verify traffic flows again.
	fc.DropAfter(-1)
	if _, err := fc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := peer.Read(buf); err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("peer read %q, %v", buf[:n], err)
	}

	// Kill: the peer sees the close, the killed side cannot write.
	if fc.Killed() {
		t.Fatal("Killed() true before Kill")
	}
	if err := fc.Kill(); err != nil {
		t.Fatal(err)
	}
	if !fc.Killed() {
		t.Fatal("Killed() false after Kill")
	}
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Fatal("write on a killed conn succeeded")
	}
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := peer.Read(buf); err == nil {
		t.Fatal("peer read succeeded after Kill")
	}
}
