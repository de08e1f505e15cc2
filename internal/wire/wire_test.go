package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"clampi/internal/datatype"
	"clampi/internal/obsv"
	"clampi/internal/rma"
)

// testServer starts an in-process server on a loopback TCP listener and
// arranges its shutdown with the test.
func testServer(t *testing.T, cfg ServeConfig) *Server {
	t.Helper()
	if cfg.Network == "" {
		cfg.Network = "tcp"
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := Serve(cfg)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { s.Shutdown(2 * time.Second) }) //clampi:walltime test teardown drain window
	return s
}

func patternRegions(n, size int) [][]byte {
	regions := MakeRegions(n, size)
	for t, reg := range regions {
		for i := range reg {
			reg[i] = byte(t*131 + i*31 + (i >> 8))
		}
	}
	return regions
}

func dialWindow(t *testing.T, s *Server, cfg DialConfig) *Window {
	t.Helper()
	cfg.Network = s.Addr().Network()
	cfg.Addr = s.Addr().String()
	if cfg.Rank == 0 {
		cfg.Rank = RankAuto
	}
	w, err := Open(cfg, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { w.Free() })
	return w
}

// TestWindowRoundTripTCP drives the full rma.Window surface over a TCP
// loopback: byte and element-type gets, put/readback, accumulate, batch,
// checksum attestation, epoch accounting.
func TestWindowRoundTripTCP(t *testing.T) {
	const regSize = 1 << 12
	regions := patternRegions(3, regSize)
	want := make([][]byte, 3)
	for i := range regions {
		want[i] = append([]byte(nil), regions[i]...)
	}
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: regions}}})
	w := dialWindow(t, s, DialConfig{Window: "w"})

	if got := w.Endpoint().Size(); got != 3 {
		t.Fatalf("world size = %d, want 3", got)
	}
	if sz, err := w.RegionSize(2); err != nil || sz != regSize {
		t.Fatalf("RegionSize = %d, %v", sz, err)
	}
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}

	// Dense get.
	dst := make([]byte, 256)
	if err := w.Get(dst, datatype.Byte, len(dst), 1, 128); err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(dst, want[1][128:128+256]) {
		t.Fatalf("dense get payload mismatch")
	}

	// Element-type get: 4 Int64 are the 32 bytes at the displacement.
	edst := make([]byte, datatype.TransferSize(datatype.Int64, 4))
	if err := w.Get(edst, datatype.Int64, 4, 2, 64); err != nil {
		t.Fatalf("int64 get: %v", err)
	}
	if !bytes.Equal(edst, want[2][64:96]) {
		t.Fatalf("int64 get payload mismatch")
	}

	// Put + readback.
	src := bytes.Repeat([]byte{0x5A}, 64)
	if err := w.Put(src, datatype.Byte, len(src), 0, 512); err != nil {
		t.Fatalf("put: %v", err)
	}
	back := make([]byte, 64)
	if err := w.Get(back, datatype.Byte, len(back), 0, 512); err != nil {
		t.Fatalf("readback: %v", err)
	}
	if !bytes.Equal(back, src) {
		t.Fatalf("readback mismatch after put")
	}

	// Accumulate OpSum over int64.
	var acc [8]byte
	binary.LittleEndian.PutUint64(acc[:], 5)
	if err := w.Put(acc[:], datatype.Byte, 8, 0, 0); err != nil {
		t.Fatalf("seed accumulate cell: %v", err)
	}
	binary.LittleEndian.PutUint64(acc[:], 37)
	if err := w.Accumulate(acc[:], datatype.Int64, 1, 0, 0, rma.OpSum); err != nil {
		t.Fatalf("accumulate: %v", err)
	}
	if err := w.Get(acc[:], datatype.Byte, 8, 0, 0); err != nil {
		t.Fatalf("get accumulated: %v", err)
	}
	if got := binary.LittleEndian.Uint64(acc[:]); got != 42 {
		t.Fatalf("accumulated value = %d, want 42", got)
	}

	// Batch across targets.
	b0, b1, b2 := make([]byte, 100), make([]byte, 200), make([]byte, 50)
	ops := []rma.GetOp{
		{Dst: b0, Target: 1, Disp: 0},
		{Dst: b1, Target: 2, Disp: 1000},
		{Dst: b2, Target: 1, Disp: 2000},
	}
	if err := w.GetBatch(ops); err != nil {
		t.Fatalf("get batch: %v", err)
	}
	if !bytes.Equal(b0, want[1][:100]) || !bytes.Equal(b1, want[2][1000:1200]) || !bytes.Equal(b2, want[1][2000:2050]) {
		t.Fatalf("batch payload mismatch")
	}

	// Checksum attestation over an untouched range.
	sum, err := w.Checksum(1, 128, 256)
	if err != nil {
		t.Fatalf("checksum: %v", err)
	}
	if wantSum := rma.ChecksumBytes(want[1][128 : 128+256]); sum != wantSum {
		t.Fatalf("checksum = %016x, want %016x", sum, wantSum)
	}

	// Completion calls close epochs.
	e0 := w.Epoch()
	if err := w.FlushAll(); err != nil {
		t.Fatalf("flush all: %v", err)
	}
	if err := w.UnlockAll(); err != nil {
		t.Fatalf("unlock all: %v", err)
	}
	if w.Epoch() != e0+2 {
		t.Fatalf("epoch advanced %d, want 2", w.Epoch()-e0)
	}
	// The clock was charged for the round trips.
	if w.Endpoint().Clock().Now() == 0 {
		t.Fatalf("virtual clock not charged by wire round trips")
	}
}

// TestWindowUnixSocket checks the same wire works over a Unix-domain
// socket.
func TestWindowUnixSocket(t *testing.T) {
	regions := patternRegions(2, 1024)
	sock := filepath.Join(t.TempDir(), "clampi.sock")
	s := testServer(t, ServeConfig{
		Network: "unix", Addr: sock,
		Windows: []WindowSpec{{Name: "w", Regions: regions}},
	})
	w := dialWindow(t, s, DialConfig{})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	dst := make([]byte, 128)
	if err := w.Get(dst, datatype.Byte, len(dst), 1, 256); err != nil {
		t.Fatalf("get over unix socket: %v", err)
	}
	if !bytes.Equal(dst, regions[1][256:384]) {
		t.Fatalf("unix socket payload mismatch")
	}
	if err := w.UnlockAll(); err != nil {
		t.Fatalf("unlock all: %v", err)
	}
}

// TestErrorParity checks the wire window reports the same sentinels, in
// the same validation order, as the simulated backend — the property
// that makes the two backends interchangeable under errors.Is.
func TestErrorParity(t *testing.T) {
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 256)}}})
	w := dialWindow(t, s, DialConfig{})
	dst := make([]byte, 16)

	if err := w.Get(dst, datatype.Byte, 16, 0, 0); !errors.Is(err, rma.ErrNoEpoch) {
		t.Fatalf("get outside epoch: %v", err)
	}
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	if err := w.Get(dst, datatype.Byte, 16, 5, 0); !errors.Is(err, rma.ErrRankRange) || !errors.Is(err, rma.ErrOutOfRange) {
		t.Fatalf("rank range: %v", err)
	}
	if err := w.Get(dst, datatype.Byte, 32, 0, 0); !errors.Is(err, rma.ErrShortBuf) {
		t.Fatalf("short buffer: %v", err)
	}
	if err := w.Get(dst, datatype.Byte, 16, 0, 250); !errors.Is(err, rma.ErrBounds) || !errors.Is(err, rma.ErrOutOfRange) {
		t.Fatalf("bounds: %v", err)
	}
	// A write whose end leaves the region is refused before it is sent:
	// its in-bounds prefix stays unwritten. 15 Int32 at 200 end at 260.
	src := bytes.Repeat([]byte{0xEE}, datatype.TransferSize(datatype.Int32, 15))
	before, after := make([]byte, 56), make([]byte, 56)
	if err := w.Get(before, datatype.Byte, len(before), 0, 200); err != nil {
		t.Fatalf("get before the writes: %v", err)
	}
	for name, write := range map[string]func() error{
		"put":        func() error { return w.Put(src, datatype.Int32, 15, 0, 200) },
		"put-notify": func() error { return w.PutNotify(src, datatype.Int32, 15, 0, 200, 1) },
	} {
		if err := write(); !errors.Is(err, rma.ErrBounds) {
			t.Fatalf("%s out of bounds: %v", name, err)
		}
		if err := w.Get(after, datatype.Byte, len(after), 0, 200); err != nil {
			t.Fatalf("get after %s: %v", name, err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s out of bounds wrote its in-bounds prefix", name)
		}
	}
	if err := w.Accumulate(dst, datatype.Byte, 16, 0, 0, rma.OpSum); !errors.Is(err, ErrBadAccumulate) {
		t.Fatalf("bad accumulate dtype: %v", err)
	}
	if err := w.Unlock(1); !errors.Is(err, rma.ErrNoEpoch) {
		t.Fatalf("unlock without lock: %v", err)
	}
	if err := w.UnlockAll(); err != nil {
		t.Fatalf("unlock all: %v", err)
	}

	if err := w.Lock(1); err != nil {
		t.Fatalf("lock: %v", err)
	}
	if err := w.Lock(1); !errors.Is(err, ErrAlreadyLocked) {
		t.Fatalf("double lock: %v", err)
	}
	if err := w.Unlock(1); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	// An unknown lock type is a caller bug: refused before the rank
	// check and before anything is sent, and not retryable.
	if err := w.LockWithType(rma.LockType(7), 5); !errors.Is(err, rma.ErrLockType) || errors.Is(err, rma.ErrTransient) {
		t.Fatalf("bad lock type: %v", err)
	}
	if err := w.Unlock(1); !errors.Is(err, rma.ErrNoEpoch) {
		t.Fatalf("unlock after refused lock: %v", err)
	}

	if err := w.Free(); err != nil {
		t.Fatalf("free: %v", err)
	}
	if err := w.Get(dst, datatype.Byte, 16, 0, 0); !errors.Is(err, rma.ErrFreed) {
		t.Fatalf("get after free: %v", err)
	}
	if err := w.Free(); !errors.Is(err, rma.ErrFreed) {
		t.Fatalf("double free: %v", err)
	}
}

// TestDialFailures checks handshake-level rejections carry the right
// sentinels.
func TestDialFailures(t *testing.T) {
	s := testServer(t, ServeConfig{
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 64)}},
		World:   2,
	})
	addr := s.Addr().String()
	if _, err := Dial(DialConfig{Addr: addr, Window: "nope", Rank: RankAuto}); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("unknown window: %v", err)
	}
	if _, err := Dial(DialConfig{Addr: addr, World: 7, Rank: RankAuto}); !errors.Is(err, ErrBadWorld) {
		t.Fatalf("world mismatch: %v", err)
	}
	if _, err := Dial(DialConfig{Addr: addr, Rank: 99}); !errors.Is(err, ErrBadWorld) {
		t.Fatalf("out-of-world rank: %v", err)
	}
	if _, err := Dial(DialConfig{Network: "tcp", Addr: "127.0.0.1:1", Rank: RankAuto, DialTimeout: time.Second}); !errors.Is(err, rma.ErrTransient) {
		t.Fatalf("refused dial: %v", err)
	}
}

// TestExclusiveLockBlocks checks cross-client mutual exclusion: an
// exclusive lock held by one client delays another client's exclusive
// lock until release.
func TestExclusiveLockBlocks(t *testing.T) {
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}}})
	w1 := dialWindow(t, s, DialConfig{})
	w2 := dialWindow(t, s, DialConfig{})

	if err := w1.LockWithType(rma.LockExclusive, 0); err != nil {
		t.Fatalf("first lock: %v", err)
	}
	acquired := make(chan error, 1)
	var released atomic.Bool
	go func() {
		err := w2.LockWithType(rma.LockExclusive, 0)
		if err == nil && !released.Load() {
			err = errors.New("second exclusive lock granted while first still held")
		}
		acquired <- err
	}()
	time.Sleep(50 * time.Millisecond) //clampi:walltime give the competing lock time to reach the server
	released.Store(true)
	if err := w1.Unlock(0); err != nil {
		t.Fatalf("unlock: %v", err)
	}
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("second lock: %v", err)
		}
	case <-time.After(5 * time.Second): //clampi:walltime test watchdog
		t.Fatalf("second lock never granted after release")
	}
	if err := w2.Unlock(0); err != nil {
		t.Fatalf("second unlock: %v", err)
	}
}

// TestLockReleasedOnDisconnect checks a client that dies holding a
// passive-target lock does not wedge the fleet: the server releases its
// locks when the connection drops.
func TestLockReleasedOnDisconnect(t *testing.T) {
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}}})
	w1 := dialWindow(t, s, DialConfig{PoolSize: 1})
	w2 := dialWindow(t, s, DialConfig{})

	if err := w1.LockWithType(rma.LockExclusive, 0); err != nil {
		t.Fatalf("lock: %v", err)
	}
	// Abrupt death: close the pool without unlocking.
	w1.Client().Close()
	done := make(chan error, 1)
	go func() { done <- w2.LockWithType(rma.LockExclusive, 0) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("lock after holder died: %v", err)
		}
	case <-time.After(5 * time.Second): //clampi:walltime test watchdog
		t.Fatalf("lock still held by dead client")
	}
	if err := w2.Unlock(0); err != nil {
		t.Fatalf("unlock: %v", err)
	}
}

// rawConn drives a server connection frame by frame, sending requests
// the client library never would.
type rawConn struct {
	t   *testing.T
	c   net.Conn
	fr  *frameReader
	seq uint64
}

// dialRaw opens a raw connection to s and completes the handshake.
func dialRaw(t *testing.T, s *Server) *rawConn {
	t.Helper()
	c, err := net.Dial(s.Addr().Network(), s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	rc := &rawConn{t: t, c: c, fr: newFrameReader(c, 0)}
	if f := rc.call(OpHello, appendHello(nil, helloPayload{Rank: RankAuto})); f.Op != OpWelcome {
		t.Fatalf("hello answered with %s", OpName(f.Op))
	}
	return rc
}

// call writes one request and returns its reply, failing the test if no
// reply arrives within the deadline.
func (rc *rawConn) call(op byte, payload []byte) Frame {
	rc.t.Helper()
	rc.seq++
	rc.c.SetDeadline(time.Now().Add(5 * time.Second)) //clampi:walltime test watchdog
	if _, err := rc.c.Write(AppendFrame(nil, op, rc.seq, payload)); err != nil {
		rc.t.Fatalf("write %s: %v", OpName(op), err)
	}
	f, err := rc.fr.next()
	if err != nil {
		rc.t.Fatalf("%s: no reply: %v", OpName(op), err)
	}
	return f
}

// lock sends OpLock and checks the reply: an ack, or an ErrProto error.
func (rc *rawConn) lock(target int32, typ byte, wantAck bool) {
	rc.t.Helper()
	f := rc.call(OpLock, appendLock(nil, lockReq{Target: target, Type: typ}))
	switch {
	case wantAck && f.Op != OpAck:
		rc.t.Errorf("lock %d type %d: %s, want an ack", target, typ, OpName(f.Op))
	case !wantAck && (f.Op != OpError || !errors.Is(errorFromFrame(f.Payload), ErrProto)):
		rc.t.Errorf("lock %d type %d: %s, want an ErrProto error", target, typ, OpName(f.Op))
	}
}

// lockFree checks that w's exclusive lock on target is granted within
// the deadline, then releases it.
func lockFree(t *testing.T, w *Window, target int) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.LockWithType(rma.LockExclusive, target) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("lock %d: %v", target, err)
		}
	case <-time.After(5 * time.Second): //clampi:walltime test watchdog
		t.Fatalf("target %d still locked by a dead client", target)
	}
	if err := w.Unlock(target); err != nil {
		t.Fatalf("unlock %d: %v", target, err)
	}
}

// TestLockAbuse checks the server trusts no lock request: a connection
// re-locking a target it holds, or naming an unknown lock type, gets an
// error frame and changes no lock state, so when it dies every target is
// free for another client's exclusive lock.
func TestLockAbuse(t *testing.T) {
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(3, 64)}}})
	w := dialWindow(t, s, DialConfig{})
	shared, excl := byte(rma.LockShared), byte(rma.LockExclusive)

	// Two shared locks, then death: a second count must not outlive it.
	rc := dialRaw(t, s)
	rc.lock(0, shared, true)
	rc.lock(0, shared, false)
	rc.c.Close()
	lockFree(t, w, 0)

	// A second exclusive lock must not wait on the first.
	rc = dialRaw(t, s)
	rc.lock(1, excl, true)
	rc.lock(1, excl, false)
	rc.lock(1, shared, false)
	rc.lock(2, 7, false)
	rc.c.Close()
	lockFree(t, w, 1)
	lockFree(t, w, 2)
}

// TestRangeOverflow sends ranges whose end overflows int64, which the
// client library never would: each must come back as an ErrBounds error
// frame, not wrap past the bounds check into a slice panic that kills
// the server.
func TestRangeOverflow(t *testing.T) {
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 1024)}}})
	rc := dialRaw(t, s)
	huge := rangeReq{Target: 1, Disp: 1 << 62, Size: 1 << 62}
	batch := append(binary.LittleEndian.AppendUint32(nil, 1), appendRange(nil, huge)...)
	for _, req := range []struct {
		op      byte
		payload []byte
	}{
		{OpGet, appendRange(nil, huge)},
		{OpChecksum, appendRange(nil, huge)},
		{OpGetBatch, batch},
		{OpPut, appendPut(nil, putReq{Target: 1, Disp: math.MaxInt64 - 2, Data: make([]byte, 8)})},
	} {
		f := rc.call(req.op, req.payload)
		if f.Op != OpError || !errors.Is(errorFromFrame(f.Payload), rma.ErrBounds) {
			t.Errorf("%s: %s, want an ErrBounds error", OpName(req.op), OpName(f.Op))
		}
	}
}

// TestClientRangeOverflow: a client call whose range ends past MaxInt is
// refused locally with ErrBounds, on every path that checks a range —
// transfers, GetBatch, Accumulate and Checksum — and sends no frame: the
// server's inbound frame count does not move.
func TestClientRangeOverflow(t *testing.T) {
	reg := obsv.NewRegistry()
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 1024)}}, Registry: reg})
	w := dialWindow(t, s, DialConfig{})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	framesIn := reg.Counter("wire_server_frames_total", obsv.L("dir", "in"))
	buf := make([]byte, 64)
	for _, disp := range []int{math.MaxInt, math.MaxInt - 2, math.MaxInt - 7} {
		for _, c := range []struct {
			name string
			call func() error
		}{
			{"Get", func() error { return w.Get(buf, datatype.Byte, 8, 1, disp) }},
			{"Put", func() error { return w.Put(buf, datatype.Byte, 8, 1, disp) }},
			{"PutNotify", func() error { return w.PutNotify(buf, datatype.Byte, 8, 1, disp, 1) }},
			{"GetBatch", func() error { return w.GetBatch([]rma.GetOp{{Dst: buf[:8], Target: 1, Disp: disp}}) }},
			{"Accumulate", func() error { return w.Accumulate(buf, datatype.Int64, 1, 1, disp, rma.OpSum) }},
			{"Checksum", func() error { _, err := w.Checksum(1, disp, 8); return err }},
		} {
			before := framesIn.Value()
			if err := c.call(); !errors.Is(err, rma.ErrBounds) {
				t.Errorf("%s at %d: %v, want ErrBounds", c.name, disp, err)
			}
			if got := framesIn.Value(); got != before {
				t.Errorf("%s at %d: the server received %d frames", c.name, disp, got-before)
			}
		}
	}
	// The same calls in range go through.
	if err := w.Get(buf, datatype.Byte, 8, 1, 1016); err != nil {
		t.Errorf("in-range Get: %v", err)
	}
	if _, err := w.Checksum(1, 1016, 8); err != nil {
		t.Errorf("in-range Checksum: %v", err)
	}
}

// TestGetBatchRefusedWhole is internal/mpi's test of the same name on
// the wire: a batch with an op out of range sends no frame, leaves the
// first op's buffer as it was and does not move the clock.
func TestGetBatchRefusedWhole(t *testing.T) {
	regions := MakeRegions(2, 64)
	for i := range regions[1] {
		regions[1][i] = byte(i + 1)
	}
	reg := obsv.NewRegistry()
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: regions}}, Registry: reg})
	w := dialWindow(t, s, DialConfig{})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	framesIn := reg.Counter("wire_server_frames_total", obsv.L("dir", "in"))
	first, second := bytes.Repeat([]byte{0xEE}, 8), make([]byte, 8)
	frames, before := framesIn.Value(), w.Endpoint().Clock().Now()
	ops := []rma.GetOp{{Dst: first, Target: 1, Disp: 0}, {Dst: second, Target: 1, Disp: 100}}
	if err := w.GetBatch(ops); !errors.Is(err, rma.ErrBounds) {
		t.Errorf("GetBatch with disp 100 of 64 B: %v, want ErrBounds", err)
	}
	if err := w.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := framesIn.Value(); got != frames {
		t.Errorf("refused batch sent %d frames", got-frames)
	}
	if now := w.Endpoint().Clock().Now(); now != before {
		t.Errorf("refused batch moved the clock by %v", now-before)
	}
	if !bytes.Equal(first, bytes.Repeat([]byte{0xEE}, 8)) {
		t.Errorf("refused batch wrote %v into the first op's buffer", first)
	}
	// The in-range op alone goes through.
	if err := w.GetBatch(ops[:1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, regions[1][:8]) {
		t.Errorf("in-range op read %v", first)
	}
}

// TestFence checks the barrier rendezvous: two clients of a world of
// two meet at Fence; neither returns until both arrive.
func TestFence(t *testing.T) {
	s := testServer(t, ServeConfig{
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 64)}},
		World:   2,
	})
	w1 := dialWindow(t, s, DialConfig{World: 2})
	w2 := dialWindow(t, s, DialConfig{World: 2})

	first := make(chan error, 1)
	go func() { first <- w1.Fence() }()
	select {
	case err := <-first:
		t.Fatalf("fence returned before the world arrived: %v", err)
	case <-time.After(100 * time.Millisecond): //clampi:walltime verifying the barrier blocks in real time
	}
	if err := w2.Fence(); err != nil {
		t.Fatalf("second fence: %v", err)
	}
	select {
	case err := <-first:
		if err != nil {
			t.Fatalf("first fence: %v", err)
		}
	case <-time.After(5 * time.Second): //clampi:walltime test watchdog
		t.Fatalf("first fence never released")
	}
}

// TestShutdownDrain checks graceful drain: a barrier waiter is released
// with ErrShutdown, post-drain dials are refused, and Shutdown returns.
func TestShutdownDrain(t *testing.T) {
	s, err := Serve(ServeConfig{
		Network: "tcp", Addr: "127.0.0.1:0",
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}},
		World:   2,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	w := dialWindow(t, s, DialConfig{World: 2})
	fenced := make(chan error, 1)
	go func() { fenced <- w.Fence() }()
	time.Sleep(50 * time.Millisecond)                   //clampi:walltime let the barrier arrival reach the server
	if err := s.Shutdown(2 * time.Second); err != nil { //clampi:walltime drain window under test
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-fenced:
		if !errors.Is(err, rma.ErrTransient) {
			t.Fatalf("drained fence error = %v, want transient (ErrShutdown)", err)
		}
	case <-time.After(5 * time.Second): //clampi:walltime test watchdog
		t.Fatalf("barrier waiter not released by drain")
	}
	if _, err := Dial(DialConfig{Addr: s.Addr().String(), Rank: RankAuto, DialTimeout: time.Second}); err == nil {
		t.Fatalf("dial succeeded after shutdown")
	}
}

// TestFrameTapCorruption checks the chaos hook end to end: a tap that
// flips payload bits produces rma.ErrCorrupt at the client — never
// silently delivered bytes — and an untouched retry succeeds.
func TestFrameTapCorruption(t *testing.T) {
	regions := patternRegions(1, 1024)
	want := append([]byte(nil), regions[0]...)
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: regions}}})

	var frames atomic.Int64
	cfg := DialConfig{
		Network: s.Addr().Network(), Addr: s.Addr().String(), Rank: RankAuto,
		FrameTap: func(frame []byte) {
			// Corrupt the first data frame only (the handshake Welcome
			// passes untouched).
			if frame[3] == OpData && frames.Add(1) == 1 {
				frame[headerSize] ^= 0x20
			}
		},
	}
	w, err := Open(cfg, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { w.Free() })
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	dst := make([]byte, 256)
	err = w.Get(dst, datatype.Byte, len(dst), 0, 0)
	if !errors.Is(err, rma.ErrCorrupt) {
		t.Fatalf("corrupted get error = %v, want rma.ErrCorrupt", err)
	}
	// The retry (second data frame, tap quiet) must heal and deliver
	// exactly the server's bytes.
	if err := w.Get(dst, datatype.Byte, len(dst), 0, 0); err != nil {
		t.Fatalf("retry get: %v", err)
	}
	if !bytes.Equal(dst, want[:256]) {
		t.Fatalf("healed get payload mismatch")
	}
}

// TestConnectionPooling checks RPCs reuse pooled connections rather than
// redialing, and that the pool is bounded.
func TestConnectionPooling(t *testing.T) {
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 256)}}})
	w := dialWindow(t, s, DialConfig{PoolSize: 1})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	dst := make([]byte, 16)
	for i := 0; i < 20; i++ {
		if err := w.Get(dst, datatype.Byte, 16, 0, 0); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	cl := w.Client()
	cl.mu.Lock()
	idle := len(cl.idle)
	cl.mu.Unlock()
	if idle != 1 {
		t.Fatalf("idle pool = %d, want 1", idle)
	}
	// 20 sequential RPCs over one healthy pooled connection: the server
	// saw exactly one connection.
	if n := s.openConns(); n != 1 {
		t.Fatalf("server sees %d connections, want 1 (pooling broken)", n)
	}
	if err := w.UnlockAll(); err != nil {
		t.Fatalf("unlock all: %v", err)
	}
}

// TestServerMetrics checks the daemon's observability gauges move: open
// connections, frames and bytes in both directions, per-op counters.
func TestServerMetrics(t *testing.T) {
	reg := obsv.NewRegistry()
	s := testServer(t, ServeConfig{
		Windows:  []WindowSpec{{Name: "w", Regions: MakeRegions(1, 256)}},
		Registry: reg,
	})
	w := dialWindow(t, s, DialConfig{})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	dst := make([]byte, 64)
	if err := w.Get(dst, datatype.Byte, 64, 0, 0); err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := w.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := reg.Gauge("wire_server_open_connections").Value(); got < 1 {
		t.Fatalf("open connections gauge = %d", got)
	}
	// The flush is local: it adds no frame in either direction.
	if got := reg.Counter("wire_server_frames_total", obsv.L("dir", "in")).Value(); got != 2 {
		t.Fatalf("frames in = %d, want 2 (hello, get)", got)
	}
	if got := reg.Counter("wire_server_frames_total", obsv.L("dir", "out")).Value(); got != 2 {
		t.Fatalf("frames out = %d, want 2 (welcome, data)", got)
	}
	if got := reg.Counter("wire_server_bytes_total", obsv.L("dir", "out")).Value(); got < 64 {
		t.Fatalf("bytes out = %d", got)
	}
	if got := reg.Counter("wire_server_requests_total", obsv.L("op", "get")).Value(); got != 1 {
		t.Fatalf("get requests = %d, want 1", got)
	}
	var buf bytes.Buffer
	if err := obsv.WritePrometheus(&buf, reg); err != nil {
		t.Fatalf("prometheus export: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("wire_server_op_wall_ns")) {
		t.Fatalf("latency histogram missing from export:\n%s", buf.String())
	}
	if err := w.UnlockAll(); err != nil {
		t.Fatalf("unlock all: %v", err)
	}
}

// TestBatchChunking checks a GetBatch whose response exceeds MaxPayload
// is split transparently and still delivers every byte.
func TestBatchChunking(t *testing.T) {
	regions := patternRegions(1, 1<<12)
	want := append([]byte(nil), regions[0]...)
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: regions}}})
	w := dialWindow(t, s, DialConfig{MaxPayload: 600})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	ops := make([]rma.GetOp, 16)
	for i := range ops {
		ops[i] = rma.GetOp{Dst: make([]byte, 200), Target: 0, Disp: i * 200}
	}
	if err := w.GetBatch(ops); err != nil {
		t.Fatalf("chunked batch: %v", err)
	}
	for i := range ops {
		if !bytes.Equal(ops[i].Dst, want[i*200:(i+1)*200]) {
			t.Fatalf("chunked batch op %d mismatch", i)
		}
	}
	if err := w.UnlockAll(); err != nil {
		t.Fatalf("unlock all: %v", err)
	}
}

// TestBatchLeavesOutZeroByteOps checks GetBatch's zero-byte rule, Get's:
// a zero-byte op succeeds at any displacement of a target in range and
// is left out of every frame, so the chunks are those of the batch
// without it, and a batch of nothing else sends no frame.
func TestBatchLeavesOutZeroByteOps(t *testing.T) {
	const size = 1 << 12
	regions := patternRegions(1, size)
	want := append([]byte(nil), regions[0]...)
	reg := obsv.NewRegistry()
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: regions}}, Registry: reg})
	w := dialWindow(t, s, DialConfig{MaxPayload: 600})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	framesIn := reg.Counter("wire_server_frames_total", obsv.L("dir", "in"))
	zeroDisps := []int{-8, 64, size, size + 64}
	var ops []rma.GetOp
	for i := 0; i < 16; i++ {
		ops = append(ops, rma.GetOp{Target: 0, Disp: zeroDisps[i%len(zeroDisps)]})
		ops = append(ops, rma.GetOp{Dst: make([]byte, 200), Target: 0, Disp: i * 200})
	}
	ops = append(ops, rma.GetOp{Target: 0, Disp: -1})
	before := framesIn.Value()
	if err := w.GetBatch(ops); err != nil {
		t.Fatalf("batch with zero-byte ops: %v", err)
	}
	// Three 200-byte ops fill a 600-byte response: six chunks.
	if n := framesIn.Value() - before; n != 6 {
		t.Errorf("batch of sixteen 200-byte ops sent %d frames, want 6", n)
	}
	for i := 1; i < 32; i += 2 {
		if d := ops[i].Disp; !bytes.Equal(ops[i].Dst, want[d:d+200]) {
			t.Fatalf("op %d mismatch", i)
		}
	}
	before = framesIn.Value()
	if err := w.GetBatch(ops[:1]); err != nil {
		t.Fatalf("zero-byte batch: %v", err)
	}
	if err := w.GetBatch([]rma.GetOp{{Target: 0, Disp: size + 64}, {Target: 0, Disp: -8}}); err != nil {
		t.Fatalf("zero-byte batch: %v", err)
	}
	if n := framesIn.Value() - before; n != 0 {
		t.Errorf("zero-byte batches sent %d frames", n)
	}
	if err := w.GetBatch([]rma.GetOp{{Target: 1}}); !errors.Is(err, rma.ErrRankRange) {
		t.Errorf("zero-byte op at target 1 of 1: %v, want ErrRankRange", err)
	}
	if err := w.UnlockAll(); err != nil {
		t.Fatalf("unlock all: %v", err)
	}
}

// TestDeadlineWindow checks the rma.DeadlineWindow extension: an op
// bounded by a deadline shorter than the server's response time fails
// with rma.ErrTimeout, and clearing the deadline restores service. A
// stalling server is simulated by grabbing the target's exclusive lock
// from another client before issuing a lock that must wait.
func TestDeadlineWindow(t *testing.T) {
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}}})
	holder := dialWindow(t, s, DialConfig{})
	if err := holder.LockWithType(rma.LockExclusive, 0); err != nil {
		t.Fatalf("holder lock: %v", err)
	}

	w := dialWindow(t, s, DialConfig{})
	var dw rma.DeadlineWindow = w // compile-time: the extension is present
	dw.SetOpDeadline(0)

	// Use the low-level RPC with a short deadline against the blocked
	// lock path: the server cannot answer until the holder releases.
	cl := w.Client()
	err := cl.RPC(OpLock, func(b []byte) []byte {
		return appendLock(b, lockReq{Target: 0, Type: byte(rma.LockExclusive)})
	}, nil, 100*time.Millisecond, nil)
	if !errors.Is(err, rma.ErrTimeout) {
		t.Fatalf("bounded blocked op error = %v, want rma.ErrTimeout", err)
	}
	if err := holder.Unlock(0); err != nil {
		t.Fatalf("holder unlock: %v", err)
	}
	// Note the timed-out lock request may still be granted server-side
	// on the poisoned connection; its conn death releases it. A fresh
	// unbounded lock must eventually succeed.
	if err := w.Lock(0); err != nil {
		t.Fatalf("lock after timeout recovery: %v", err)
	}
	if err := w.Unlock(0); err != nil {
		t.Fatalf("unlock: %v", err)
	}
}

// TestFlushIsLocal checks the completion calls that send nothing: Flush
// and FlushAll keep their validation and close the epoch like any other
// closure, and because they never touch the socket a dead server is
// reported by the next data operation, not by the flush.
func TestFlushIsLocal(t *testing.T) {
	s, err := Serve(ServeConfig{
		Network: "tcp", Addr: "127.0.0.1:0",
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, 256)}},
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer s.Shutdown(2 * time.Second) //clampi:walltime test teardown drain window
	w := dialWindow(t, s, DialConfig{})
	var closed []int64
	w.AddEpochListener(func(e int64) { closed = append(closed, e) })

	if err := w.Flush(0); !errors.Is(err, rma.ErrNoEpoch) {
		t.Fatalf("flush outside an epoch: %v", err)
	}
	if err := w.FlushAll(); !errors.Is(err, rma.ErrNoEpoch) {
		t.Fatalf("flush all outside an epoch: %v", err)
	}
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	if err := w.Flush(2); !errors.Is(err, rma.ErrRankRange) {
		t.Fatalf("flush of rank 2 of 2: %v", err)
	}
	if err := w.Flush(-1); !errors.Is(err, rma.ErrRankRange) {
		t.Fatalf("flush of rank -1: %v", err)
	}
	if len(closed) != 0 || w.Epoch() != 0 {
		t.Fatalf("refused flushes closed epochs %v, epoch now %d", closed, w.Epoch())
	}
	if err := w.Flush(1); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := w.FlushAll(); err != nil {
		t.Fatalf("flush all: %v", err)
	}
	if len(closed) != 2 || closed[0] != 0 || closed[1] != 1 || w.Epoch() != 2 {
		t.Fatalf("listeners saw epochs %v, epoch now %d; want [0 1] and 2", closed, w.Epoch())
	}

	dst := make([]byte, 16)
	if err := w.Get(dst, datatype.Byte, 16, 1, 0); err != nil {
		t.Fatalf("get: %v", err)
	}
	// The window's pooled connection is idle, not closed, so the drain
	// runs out its (short) window and then cuts it.
	if err := s.Shutdown(50 * time.Millisecond); err != nil { //clampi:walltime drain window before idle connections are cut
		t.Fatalf("shutdown: %v", err)
	}
	if err := w.FlushAll(); err != nil {
		t.Fatalf("flush all with the server gone: %v", err)
	}
	if err := w.Get(dst, datatype.Byte, 16, 1, 0); !errors.Is(err, rma.ErrTransient) {
		t.Fatalf("get with the server gone: %v, want an rma.ErrTransient", err)
	}

	if err := w.Free(); err != nil {
		t.Fatalf("free: %v", err)
	}
	if err := w.Flush(0); !errors.Is(err, rma.ErrFreed) {
		t.Fatalf("flush after free: %v", err)
	}
	if err := w.FlushAll(); !errors.Is(err, rma.ErrFreed) {
		t.Fatalf("flush all after free: %v", err)
	}
}
