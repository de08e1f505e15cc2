package wire

// Tests of the frame data path (protocol v2): what integrity the CRC32C
// trailer guarantees, what a frame costs in Read/Write calls and
// allocations, how frame buffers return to their small size, and how a
// version-1 peer is turned away.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/obsv"
	"clampi/internal/rma"
)

// v1Frame builds a protocol-version-1 frame: the same header with
// version 1 and an 8-byte FNV-1a trailer.
func v1Frame(op byte, seq uint64, payload []byte) []byte {
	b := []byte{magic0, magic1, 1, op}
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint64(b, rma.ChecksumBytes(b))
}

// wantVersionSkew checks err is the protocol error a version-1 frame must
// produce: ErrProto naming both versions, never a checksum failure.
func wantVersionSkew(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrProto) || errors.Is(err, ErrChecksum) {
		t.Fatalf("v1 frame error = %v, want ErrProto and not ErrChecksum", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "want 2") {
		t.Fatalf("v1 frame error %q does not name both versions", msg)
	}
}

// TestV1FrameRejected checks a version-1 peer on either side: the codec
// and the client report ErrProto naming both versions; the server logs
// the frame once and closes the connection rather than answering or
// looping.
func TestV1FrameRejected(t *testing.T) {
	hello := v1Frame(OpHello, 1, appendHello(nil, helloPayload{Rank: -1}))

	t.Run("codec", func(t *testing.T) {
		_, _, err := DecodeFrame(hello, 0)
		wantVersionSkew(t, err)
	})

	t.Run("server", func(t *testing.T) {
		var mu sync.Mutex
		var logs []string
		s := testServer(t, ServeConfig{
			Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, 64)}},
			Logf: func(format string, args ...any) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			},
		})
		c, err := net.Dial(s.Addr().Network(), s.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		// Two v1 frames back to back: a server that looped would log twice.
		if _, err := c.Write(append(append([]byte(nil), hello...), hello...)); err != nil {
			t.Fatalf("write: %v", err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second)) //clampi:walltime test watchdog
		if n, err := c.Read(make([]byte, 64)); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("server answered a v1 frame: read %d bytes, err %v (want a bare close)", n, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(logs) != 1 || !strings.Contains(logs[0], "version 1 (want 2)") {
			t.Fatalf("server log for one v1 connection = %q, want one line naming both versions", logs)
		}
	})

	t.Run("client", func(t *testing.T) {
		ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "v1.sock"))
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			if _, err := io.ReadFull(c, make([]byte, headerSize)); err != nil {
				return
			}
			c.Write(v1Frame(OpWelcome, 1, appendWelcome(nil, welcomePayload{Regions: []int64{64}})))
		}()
		_, err = Dial(DialConfig{Network: "unix", Addr: ln.Addr().String(), Rank: RankAuto, DialTimeout: 5 * time.Second})
		wantVersionSkew(t, err)
	})
}

// TestBurstErrorsRejected is the property the CRC32C trailer buys over
// version 1's FNV-1a: inverting any burst of up to 32 consecutive bits —
// first and last bit flipped, any pattern between — anywhere in a frame
// (header, payload, trailer) never decodes. Every start position of the
// small frames is tried with every burst length; the 64 KiB frame is
// sampled.
func TestBurstErrorsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(20170529))
	payload := make([]byte, 64<<10)
	rng.Read(payload)

	flipBurst := func(b []byte, start, length int) {
		for i := 0; i < length; i++ {
			if i == 0 || i == length-1 || rng.Intn(2) == 1 {
				bit := start + i
				b[bit/8] ^= 1 << (bit % 8)
			}
		}
	}
	check := func(t *testing.T, good, scratch []byte, start, length int) {
		copy(scratch, good)
		flipBurst(scratch, start, length)
		if f, _, err := DecodeFrame(scratch, 0); err == nil {
			t.Fatalf("burst of %d bits at bit %d decoded as %s frame with %dB payload", length, start, OpName(f.Op), len(f.Payload))
		} else if !errors.Is(err, rma.ErrTransient) {
			t.Fatalf("burst of %d bits at bit %d: %v escapes the rma.ErrTransient family", length, start, err)
		}
	}
	for _, size := range []int{0, 64} {
		good := AppendFrame(nil, OpData, 7, payload[:size])
		scratch := make([]byte, len(good))
		for start := 0; start < 8*len(good); start++ {
			for length := 1; length <= 32 && start+length <= 8*len(good); length++ {
				check(t, good, scratch, start, length)
			}
		}
	}
	good := AppendFrame(nil, OpData, 7, payload)
	scratch := make([]byte, len(good))
	samples := 20000
	if testing.Short() {
		samples = 2000
	}
	for i := 0; i < samples; i++ {
		length := 1 + rng.Intn(32)
		start := rng.Intn(8*len(good) - length + 1)
		if i%4 == 0 { // keep header and trailer well covered
			if start = rng.Intn(8*(headerSize+8) - length); i%8 == 0 {
				start = 8*len(good) - length - rng.Intn(8*(checksumSize+4))
			}
		}
		check(t, good, scratch, start, length)
	}
}

// chunkReader hands out a byte stream in reads of at most n bytes, the
// way a socket delivers a large frame.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// TestFrameReaderShrinks checks an oversized frame does not pin its
// buffer: once it has been consumed the reader is back on the small
// buffer, with the frames that followed it in the stream intact.
func TestFrameReaderShrinks(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5}, 8<<20)
	small := bytes.Repeat([]byte{0x5A}, 64)
	var stream []byte
	stream = AppendFrame(stream, OpData, 1, big)
	for seq := uint64(2); seq <= 5; seq++ {
		stream = AppendFrame(stream, OpData, seq, small)
	}
	fr := newFrameReader(chunkReader{bytes.NewReader(stream), 1 << 16}, 0)
	f, err := fr.next()
	if err != nil || f.Seq != 1 || !bytes.Equal(f.Payload, big) {
		t.Fatalf("8 MiB frame: seq %d, %dB, err %v", f.Seq, len(f.Payload), err)
	}
	if cap(fr.buf) < len(big) {
		t.Fatalf("8 MiB frame served from a %dB buffer", cap(fr.buf))
	}
	for seq := uint64(2); seq <= 5; seq++ {
		f, err := fr.next()
		if err != nil || f.Seq != seq || !bytes.Equal(f.Payload, small) {
			t.Fatalf("frame %d after the big one: seq %d, %dB, err %v", seq, f.Seq, len(f.Payload), err)
		}
		if cap(fr.buf) != frameBufMin {
			t.Fatalf("after frame %d the reader still holds a %dB buffer, want %d", seq, cap(fr.buf), frameBufMin)
		}
	}
	if _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v", err)
	}
}

// TestConnBuffersShrink is the same property end to end: an 8 MiB get
// and an 8 MiB put followed by 64 B gets leave the pooled connection's
// read and write buffers small.
func TestConnBuffersShrink(t *testing.T) {
	const bigSize = 8 << 20
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: patternRegions(1, bigSize)}}})
	w := dialWindow(t, s, DialConfig{PoolSize: 1})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	big := make([]byte, bigSize)
	if err := w.Get(big, datatype.Byte, bigSize, 0, 0); err != nil {
		t.Fatalf("8 MiB get: %v", err)
	}
	cc := w.cl.idle[0]
	if cap(cc.fr.buf) != frameBufMin {
		t.Fatalf("idle connection pins a %dB frame buffer after an 8 MiB get", cap(cc.fr.buf))
	}
	if err := w.Put(big, datatype.Byte, bigSize, 0, 0); err != nil {
		t.Fatalf("8 MiB put: %v", err)
	}
	dst := make([]byte, 64)
	for i := 0; i < 3; i++ {
		if err := w.Get(dst, datatype.Byte, 64, 0, 4096); err != nil {
			t.Fatalf("64 B get: %v", err)
		}
		if !bytes.Equal(dst, big[4096:4096+64]) {
			t.Fatalf("64 B get after the big transfers returned wrong bytes")
		}
	}
	if cap(cc.fr.buf) != frameBufMin || cap(cc.wb) > frameBufKeep {
		t.Fatalf("after 64 B gets: read buffer %dB, write buffer %dB", cap(cc.fr.buf), cap(cc.wb))
	}
}

// countConn counts the Read and Write calls made on a real socket: a
// Write when it is issued, a Read when it returns, so that neither a
// reader parked waiting for the next request nor a writer descheduled
// after its peer already saw the bytes leaks into the neighbouring round.
type countConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// ioCount is a snapshot of Read and Write calls.
type ioCount struct{ reads, writes int64 }

func (a ioCount) sub(b ioCount) ioCount { return ioCount{a.reads - b.reads, a.writes - b.writes} }

// countClientConn interposes a countConn on an established client
// connection.
func countClientConn(cc *clientConn) *countConn {
	k := &countConn{Conn: cc.c}
	cc.c, cc.fr.r = k, k
	return k
}

// TestSyscallBudget counts Read and Write calls on both ends of real
// Unix-socket connections in steady state: every frame leaves in one
// Write, and a 64 B frame arrives in one Read — on the client, on the
// server and on the notification sink. The counters wrap the converted
// connections, server ends as acceptLoop adopts them and client ends
// once dialed, and with room for all six every connection must wait in
// read(2), not in the netpoller.
func TestSyscallBudget(t *testing.T) {
	roomToBlock(t, 6)
	sock := filepath.Join(t.TempDir(), "counted.sock")
	var mu sync.Mutex
	var served []*countConn // server ends; srv sums over all of them
	adopt = func(c net.Conn) net.Conn {
		c = blocking(c)
		if c.LocalAddr().String() != sock {
			return c // a client end, counted below once it is pooled
		}
		k := &countConn{Conn: c}
		mu.Lock()
		served = append(served, k)
		mu.Unlock()
		return k
	}
	t.Cleanup(func() { adopt = blocking }) // runs after the server's shutdown
	s := testServer(t, ServeConfig{
		Network: "unix", Addr: sock,
		Windows: []WindowSpec{{Name: "w", Regions: patternRegions(2, 4096)}},
	})
	srv := func() ioCount {
		mu.Lock()
		defer mu.Unlock()
		var n ioCount
		for _, k := range served {
			n.reads += k.reads.Load()
			n.writes += k.writes.Load()
		}
		return n
	}
	open := func(rank int) *Window {
		w, err := Open(DialConfig{Network: "unix", Addr: s.Addr().String(), Rank: rank, PoolSize: 1}, nil)
		if err != nil {
			t.Fatalf("open rank %d: %v", rank, err)
		}
		t.Cleanup(func() { w.Free() })
		if err := w.LockAll(); err != nil {
			t.Fatalf("lock all: %v", err)
		}
		return w
	}
	writer, reader := open(0), open(1)
	if err := reader.NotifyEnable(256); err != nil {
		t.Fatalf("notify enable: %v", err)
	}
	cli := countClientConn(writer.cl.idle[0])
	sink := countClientConn(reader.nc)
	count := func(k *countConn) ioCount { return ioCount{k.reads.Load(), k.writes.Load()} }

	const rounds = 50
	buf := make([]byte, 64)
	batch := make([]rma.GetOp, 4)
	for i := range batch {
		batch[i] = rma.GetOp{Dst: make([]byte, 16), Target: 1, Disp: 64 * i}
	}
	polled := make([]notify.Notification, 2*rounds)
	ops := []struct {
		name      string
		run       func() error
		srvWrites int64 // server Write calls per round
	}{
		{"Get", func() error { return writer.Get(buf, datatype.Byte, 64, 1, 128) }, 1},
		// The same budget as the Get alone: the flush is local and makes
		// no call on either end.
		{"Get+Flush", func() error {
			if err := writer.Get(buf, datatype.Byte, 64, 1, 128); err != nil {
				return err
			}
			return writer.FlushAll()
		}, 1},
		{"GetBatch", func() error { return writer.GetBatch(batch) }, 1},
		{"Put", func() error { return writer.Put(buf, datatype.Byte, 64, 1, 256) }, 1},
		{"PutNotify", func() error { return writer.PutNotify(buf, datatype.Byte, 64, 1, 256, 9) }, 2}, // ack + push
	}
	for _, op := range ops {
		if err := op.run(); err != nil { // warm-up
			t.Fatalf("%s: %v", op.name, err)
		}
		c0, s0 := count(cli), srv()
		for i := 0; i < rounds; i++ {
			if err := op.run(); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		}
		c, sv := count(cli).sub(c0), srv().sub(s0)
		t.Logf("%-9s x%d: client %d writes %d reads; server %d reads %d writes", op.name, rounds, c.writes, c.reads, sv.reads, sv.writes)
		if c.writes != rounds || c.reads != rounds {
			t.Errorf("%s: client made %d writes and %d reads for %d round trips, want one of each", op.name, c.writes, c.reads, rounds)
		}
		if sv.reads != rounds || sv.writes != rounds*op.srvWrites {
			t.Errorf("%s: server made %d reads and %d writes for %d requests, want %d and %d", op.name, sv.reads, sv.writes, rounds, rounds, rounds*op.srvWrites)
		}
	}

	// The sink now has rounds+1 pushed frames in its socket. One pump is
	// one marker Write and never more Reads than frames (pushes + ack).
	k0, s0 := count(sink), srv()
	n, overflowed := reader.NotifyPoll(polled)
	k, sv := count(sink).sub(k0), srv().sub(s0)
	t.Logf("pump of %d pushes: sink %d writes %d reads; server %d reads %d writes", n, k.writes, k.reads, sv.reads, sv.writes)
	if n != rounds+1 || overflowed {
		t.Fatalf("poll = (%d, %v), want (%d, false)", n, overflowed, rounds+1)
	}
	if k.writes != 1 || k.reads < 1 || k.reads > int64(n)+1 {
		t.Errorf("pump made %d writes and %d reads for %d frames", k.writes, k.reads, n+1)
	}
	if sv.reads != 1 || sv.writes != 1 {
		t.Errorf("pump marker cost the server %d reads and %d writes, want 1 and 1", sv.reads, sv.writes)
	}

	// A single pushed OpNotify reaching a waiting subscriber: the pump's
	// marker and its ack, then the push — one Read per frame at most.
	k0 = count(sink)
	waited := make(chan error, 1)
	go func() { waited <- reader.NotifyWait() }()
	if err := writer.PutNotify(buf, datatype.Byte, 64, 1, 256, 10); err != nil {
		t.Fatalf("put notify: %v", err)
	}
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("notify wait: %v", err)
		}
	case <-time.After(5 * time.Second): //clampi:walltime test watchdog
		t.Fatalf("NotifyWait never saw the push")
	}
	k = count(sink).sub(k0)
	t.Logf("one push to a waiter: sink %d writes %d reads", k.writes, k.reads)
	if k.writes != 1 || k.reads < 1 || k.reads > 2 {
		t.Errorf("waiting for one push made %d writes and %d reads, want 1 write and at most 2 reads (ack, push)", k.writes, k.reads)
	}

	wantMode(t, "the writer", cli.Conn, "read(2)")
	wantMode(t, "the reader", reader.cl.idle[0].c, "read(2)")
	wantMode(t, "the sink", sink.Conn, "read(2)")
	waitFor(t, "every server end to wait in read(2)", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range served {
			if !inMode(k.Conn, "read(2)") {
				return false
			}
		}
		return true
	})
}

// TestHotPathAllocs pins the steady-state allocation count of a get and
// of a batched get at zero — over the whole exchange, client and
// in-process server (metrics registry attached) together.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s := testServer(t, ServeConfig{
		Network: "unix", Addr: filepath.Join(t.TempDir(), "allocs.sock"),
		Windows:  []WindowSpec{{Name: "w", Regions: patternRegions(2, 128<<10)}},
		Registry: obsv.NewRegistry(),
	})
	w := dialWindow(t, s, DialConfig{PoolSize: 1})
	if err := w.LockAll(); err != nil {
		t.Fatalf("lock all: %v", err)
	}
	small, large := make([]byte, 64), make([]byte, 64<<10)
	batch := make([]rma.GetOp, 8)
	for i := range batch {
		batch[i] = rma.GetOp{Dst: make([]byte, 576), Target: i % 2, Disp: 1024 * i}
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"getRange 64 B", func() error { return w.getRange(small, 1, 64) }},
		{"getRange 64 KiB", func() error { return w.getRange(large, 1, 4096) }},
		{"GetBatch 8 x 576 B", func() error { return w.GetBatch(batch) }},
	}
	for _, tc := range cases {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := tc.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per round trip (client + server), want 0", tc.name, allocs)
		}
	}
}

// TestGetSnapshotUnderPuts races gets against puts over a range that
// spans every stripe of the region. The server copies the range under
// the stripe read locks and checksums its private copy after releasing
// them, so every get must verify (payload and CRC agree) and must see
// one whole put, never a mix of two.
func TestGetSnapshotUnderPuts(t *testing.T) {
	const size = 16 << 10 // 8 stripes of 2 KiB
	s := testServer(t, ServeConfig{Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(1, size)}}})
	putter := dialWindow(t, s, DialConfig{})
	getter := dialWindow(t, s, DialConfig{})
	for _, w := range []*Window{putter, getter} {
		if err := w.LockAll(); err != nil {
			t.Fatalf("lock all: %v", err)
		}
	}
	stop := make(chan struct{})
	putErr := make(chan error, 1)
	go func() {
		src := make([]byte, size)
		for v := byte(1); ; v++ {
			select {
			case <-stop:
				putErr <- nil
				return
			default:
			}
			for i := range src {
				src[i] = v
			}
			if err := putter.Put(src, datatype.Byte, size, 0, 0); err != nil {
				putErr <- err
				return
			}
		}
	}()
	dst := make([]byte, size)
	for i := 0; i < 300; i++ {
		if err := getter.Get(dst, datatype.Byte, size, 0, 0); err != nil {
			t.Fatalf("get %d under concurrent puts: %v", i, err)
		}
		if !bytes.Equal(dst, bytes.Repeat(dst[:1], size)) {
			t.Fatalf("get %d returned a torn snapshot", i)
		}
	}
	close(stop)
	if err := <-putErr; err != nil {
		t.Fatalf("put: %v", err)
	}
}
