package wire

// Tests of the I/O model (DESIGN.md §13.6). On Linux an established
// connection waits in read(2) while the process has at most GOMAXPROCS
// connections open, and there neither a netpoller deadline nor close(2)
// reaches it; these are the properties that had come for free from the
// netpoller: deadlines, a close that wakes the reader, and a bounded
// number of the threads blocked readers pin.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"clampi/internal/datatype"
	"clampi/internal/rma"
)

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); { //clampi:walltime test watchdog
		if time.Now().After(end) { //clampi:walltime test watchdog
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond) //clampi:walltime polling interval
	}
}

// setProcs sets GOMAXPROCS to n for the rest of the test. A connection
// takes its bound from GOMAXPROCS when it is born.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) }) // runs after the cleanups registered later
}

// roomToBlock raises GOMAXPROCS for the rest of the test so that n more
// connections block in read(2) beside those the process has open.
func roomToBlock(t *testing.T, n int) {
	if want := openAdopted() + n; runtime.GOMAXPROCS(0) < want {
		setProcs(t, want)
	}
}

// inMode reports whether a read on c waits where want ("read(2)" or
// "netpoller") says; off Linux there is nothing to tell apart.
func inMode(c net.Conn, want string) bool {
	got := ioMode(c)
	return got == "" || got == want
}

func wantMode(t *testing.T, what string, c net.Conn, want string) {
	t.Helper()
	if !inMode(c, want) {
		t.Errorf("%s: a read waits in %s, want %s", what, ioMode(c), want)
	}
}

// blockedIn reports whether a goroutine with fn on its stack waits in a
// syscall (a blocking read) or in the netpoller (off Linux).
func blockedIn(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		waiting := bytes.Contains(g, []byte(" [syscall")) || bytes.Contains(g, []byte(" [IO wait"))
		if waiting && bytes.Contains(g, []byte(fn)) {
			return true
		}
	}
	return false
}

// stalledPeer listens on a Unix socket, answers the first handshake with
// a one-region Welcome and never reads from that connection again, so a
// large enough write into it fills the socket buffers and blocks.
func stalledPeer(t *testing.T) string {
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "stalled.sock"))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	accepted := make(chan net.Conn, 1)
	t.Cleanup(func() {
		ln.Close()
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
		f, err := newFrameReader(c, 0).next()
		if err != nil {
			return
		}
		c.Write(AppendFrame(nil, OpWelcome, f.Seq, appendWelcome(nil, welcomePayload{Regions: []int64{64 << 20}})))
	}()
	return ln.Addr().String()
}

// TestWriteDeadline checks a write into a peer that stopped reading: on
// a blocking descriptor the netpoller deadline cannot interrupt write(2),
// so SO_SNDTIMEO hands the wait back to it, and the exchange fails with
// rma.ErrTimeout within twice its deadline. (With SO_SNDTIMEO at the time
// left it took 399.1–399.9 ms of a 200 ms deadline: net.Conn.Write
// repeats a partial write(2) with the same relative timeout.) The 32 MiB
// put leaves from the caller's buffer in three writes, so the deadline
// is not spent copying it into a frame first: under -race, on a 2-vCPU
// VM, that copy took 72–142 ms of the 200 on an idle host, more on a busy
// one.
func TestWriteDeadline(t *testing.T) {
	roomToBlock(t, 1)
	cl, err := Dial(DialConfig{Network: "unix", Addr: stalledPeer(t), Rank: RankAuto})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	wantMode(t, "the client", cl.idle[0].c, "read(2)") // and so its writes block too
	const deadline = 200 * time.Millisecond
	data := make([]byte, 32<<20) // far beyond what both socket buffers hold
	start := time.Now()          //clampi:walltime the deadline under test is wall-clock
	err = cl.RPC(OpPut, func(b []byte) []byte {
		return appendPut(b, putReq{Target: 0})
	}, data, deadline, nil)
	took := time.Since(start) //clampi:walltime see above
	t.Logf("write into a stalled peer failed after %v: %v", took, err)
	if !errors.Is(err, rma.ErrTimeout) {
		t.Fatalf("write into a stalled peer = %v, want rma.ErrTimeout", err)
	}
	if took > 2*deadline {
		t.Fatalf("write into a stalled peer took %v, want at most %v", took, 2*deadline)
	}
}

// TestShutdownWakesBlockedRead checks Server.Shutdown's force-close
// reaches a connection whose goroutine waits in read(2) for a request
// that never comes: the shutdown returns within the drain window plus
// the close, and the client's next get sees a transient error.
func TestShutdownWakesBlockedRead(t *testing.T) {
	roomToBlock(t, 2)
	s, err := Serve(ServeConfig{
		Network: "unix", Addr: filepath.Join(t.TempDir(), "drain.sock"),
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	w := dialWindow(t, s, DialConfig{PoolSize: 1})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	dst := make([]byte, 16)
	if err := w.Get(dst, datatype.Byte, 16, 0, 0); err != nil {
		t.Fatalf("get: %v", err)
	}
	waitFor(t, "the connection's goroutine to wait for its next request", func() bool { return blockedIn("(*Server).serveConn") })
	s.connMu.Lock()
	for c := range s.conns {
		wantMode(t, "the server end", c, "read(2)")
	}
	s.connMu.Unlock()
	start := time.Now()                                       //clampi:walltime the drain window under test is wall-clock
	if err := s.Shutdown(50 * time.Millisecond); err != nil { //clampi:walltime drain window under test
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > time.Second { //clampi:walltime see above
		t.Fatalf("shutdown with a connection blocked in its read took %v", took)
	}
	if err := w.Get(dst, datatype.Byte, 16, 0, 0); !errors.Is(err, rma.ErrTransient) {
		t.Fatalf("get after shutdown = %v, want rma.ErrTransient", err)
	}
}

// TestFreeWakesNotifyWait checks Window.Free on another goroutine ends a
// NotifyWait blocked in the read of the subscribe connection.
func TestFreeWakesNotifyWait(t *testing.T) {
	roomToBlock(t, 4) // data and subscribe connections, both ends
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}}})
	w, err := Open(DialConfig{Network: s.Addr().Network(), Addr: s.Addr().String(), Rank: RankAuto}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := w.NotifyEnable(16); err != nil {
		t.Fatalf("notify enable: %v", err)
	}
	waited := make(chan error, 1)
	go func() { waited <- w.NotifyWait() }()
	waitFor(t, "NotifyWait to block in its read", func() bool { return blockedIn("(*Window).readPush") })
	wantMode(t, "the subscribe connection", w.nc.c, "read(2)")
	if err := w.Free(); err != nil {
		t.Fatalf("free: %v", err)
	}
	select {
	case err := <-waited:
		if err == nil {
			t.Fatalf("NotifyWait returned nil after Free with no notification queued")
		}
	case <-time.After(time.Second): //clampi:walltime test watchdog
		t.Fatalf("Free did not wake the blocked NotifyWait")
	}
}

// threads returns the process's OS thread count, or -1 where
// /proc/self/status does not exist.
func threads(t *testing.T) int {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "Threads:"); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return n
		}
	}
	return -1
}

// TestBlockingBound checks the bound on blocked readers: with GOMAXPROCS
// at 2, eight clients (sixteen connections in this process, both ends)
// all serve gets while every end waits in the netpoller; once seven have
// gone, the last client's next get puts both its ends back in read(2).
// No connection is refused on the way. Once every client has gone the
// goroutines and threads are back where they were. The runtime keeps an
// idle thread for reuse rather than ending it, so the thread baseline is
// taken after a first wave, and four more waves must reuse those
// threads; a wave's peak varies by one with the scheduling.
func TestBlockingBound(t *testing.T) {
	setProcs(t, 2)
	s := testServer(t, ServeConfig{
		Network: "unix", Addr: filepath.Join(t.TempDir(), "bound.sock"),
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}},
	})
	waitFor(t, "earlier tests' connections to close", func() bool { return openAdopted() == 0 })
	cfg := DialConfig{Network: "unix", Addr: s.Addr().String(), Rank: RankAuto, PoolSize: 1}
	dst := make([]byte, 16)
	get := func(w *Window) {
		if err := w.Get(dst, datatype.Byte, 16, 0, 0); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	serverEnds := func(want string) bool {
		s.connMu.Lock()
		defer s.connMu.Unlock()
		for c := range s.conns {
			if !inMode(c, want) {
				return false
			}
		}
		return true
	}
	wave := func() {
		var ws []*Window
		for i := 0; i < 8; i++ {
			w, err := Open(cfg, nil)
			if err != nil {
				t.Fatalf("client %d: %v", i+1, err)
			}
			if err := w.LockAll(); err != nil {
				t.Fatalf("lock all: %v", err)
			}
			ws = append(ws, w)
		}
		for _, w := range ws {
			get(w) // its read starts with all sixteen open
			wantMode(t, "a client of eight", w.cl.idle[0].c, "netpoller")
		}
		waitFor(t, "every server end to wait in the netpoller", func() bool { return serverEnds("netpoller") })
		for _, w := range ws[1:] {
			w.Free()
		}
		waitFor(t, "the server to close seven connections", func() bool { return s.openConns() == 1 })
		get(ws[0])
		wantMode(t, "the last client", ws[0].cl.idle[0].c, "read(2)")
		waitFor(t, "its server end to block in read(2)", func() bool { return serverEnds("read(2)") })
		ws[0].Free()
		waitFor(t, "the server to close every connection", func() bool { return s.openConns() == 0 })
	}
	g0 := runtime.NumGoroutine()
	wave()
	th0 := threads(t)
	for i := 0; i < 4; i++ {
		wave()
	}
	g, th := 0, 0
	waitFor(t, fmt.Sprintf("goroutines and threads to return to their baseline of %d and %d (+1)", g0, th0), func() bool {
		g, th = runtime.NumGoroutine(), threads(t)
		return g <= g0 && th <= th0+1
	})
	t.Logf("%d goroutines, %d threads after five waves; %d before the first, %d after it", g, th, g0, th0)
}
