package fedproto

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// pipeConns builds a connected pair of protocol conns over loopback TCP
// (net.Pipe has no deadline support, so deadline semantics need a real
// socket). The first conn is wrapped with timeout, the second with none.
func pipeConns(t *testing.T, timeout time.Duration) (*Conn, *Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	ca, cb := Wrap(cli, timeout), Wrap(a.c, 0)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// TestConnTimeout pins the one deadline rule: every Recv arms the timeout
// the conn was wrapped with, so a Recv that waits past it fails with a
// net.Error timeout, and a conn wrapped with 0 waits as long as it takes.
// Each conn first receives one message, so the rule is checked on a Recv
// that follows an earlier one. wait bounds the timeout case generously and
// is how long the other case must stay blocked.
func TestConnTimeout(t *testing.T) {
	const short = 60 * time.Millisecond
	for _, tc := range []struct {
		name          string
		timeout, wait time.Duration
	}{{"timeout", short, 2 * time.Second}, {"none", 0, 5 * short}} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := pipeConns(t, tc.timeout)
			if err := srv.Send(&Message{Kind: MsgModel, Round: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := cli.Recv(); err != nil {
				t.Fatalf("first recv: %v", err)
			}
			got := make(chan error, 1)
			go func() {
				_, err := cli.Recv()
				got <- err
			}()
			select {
			case err := <-got:
				var nerr net.Error
				if tc.timeout == 0 || !errors.As(err, &nerr) || !nerr.Timeout() {
					t.Fatalf("recv with timeout %v returned %v before any message", tc.timeout, err)
				}
				return
			case <-time.After(tc.wait):
				if tc.timeout > 0 {
					t.Fatalf("recv still blocked after %v with a %v timeout", tc.wait, tc.timeout)
				}
			}
			if err := srv.Send(&Message{Kind: MsgModel, Round: 2}); err != nil {
				t.Fatal(err)
			}
			if err := <-got; err != nil {
				t.Fatalf("recv on a conn without timeout: %v", err)
			}
		})
	}
}

// TestBytesConcurrentWithBlockedRecv pins the lock-free tallies: Bytes and
// InBytes must return while another goroutine is parked inside Recv (the
// old implementation took the same mutex for both, so a blocked decode
// could starve readers).
func TestBytesConcurrentWithBlockedRecv(t *testing.T) {
	cli, srv := pipeConns(t, 0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cli.Recv() // parked until the reply lands
	}()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			cli.Bytes()
			cli.InBytes()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Bytes() blocked behind a parked Recv")
	}
	srv.Send(&Message{Kind: MsgModel})
	wg.Wait()
	if in := cli.InBytes(); in <= 0 {
		t.Fatalf("InBytes = %d after a received message", in)
	}
}
