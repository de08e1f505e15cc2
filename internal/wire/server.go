package wire

// The server half of the transport: cmd/clampi-serve embeds a Server to
// expose one or more window regions to many concurrent client
// processes. Each accepted connection gets its own goroutine, which on
// Linux waits for the next request in read(2) while the process has at
// most GOMAXPROCS connections open (conn_linux.go); cross-
// client data movement goes through the window's rma.Memory, the same
// striped store the simulated runtime uses, so concurrent readers
// proceed in parallel while writers take their covered stripes
// exclusively and a get never observes a torn put.
//
// The server is deliberately epoch-free: MPI epochs are origin-side
// state, so the client half (window.go) tracks them and the server only
// orders the physical byte movement — exactly the split foMPI makes
// between its origin bookkeeping and the passive RDMA target.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clampi/internal/notify"
	"clampi/internal/obsv"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// WindowSpec describes one window the server exposes: a name clients
// select in their handshake and the initial contents of its regions
// (one region per target rank; sizes are taken from the slices).
type WindowSpec struct {
	Name    string
	Regions [][]byte
}

// MakeRegions builds n zero-filled regions of size bytes each — the
// common symmetric-window shape (MPI_Win_allocate with equal sizes).
func MakeRegions(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

// ServeConfig configures a Server.
type ServeConfig struct {
	// Network is "tcp" or "unix"; Addr is the listen address
	// (host:port or socket path).
	Network, Addr string
	// Windows are the exposed windows. At least one is required; the
	// first one is the default when a client's handshake names none.
	Windows []WindowSpec
	// World, when positive, pins the number of barrier participants per
	// window. Zero lets the first client's handshake declare it.
	World int
	// MaxPayload bounds frame payloads; zero selects DefaultMaxPayload.
	MaxPayload int
	// Registry, when non-nil, receives the daemon's metrics: open
	// connections, frames and bytes in/out, and per-op wall-clock
	// latency histograms.
	Registry *obsv.Registry
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// targetLock is the cross-client passive-target lock state of one
// (window, target) pair — the server half of MPI_Win_lock semantics.
type targetLock struct {
	mu        sync.Mutex
	cond      *sync.Cond
	exclusive bool
	shared    int
}

func (tl *targetLock) init() { tl.cond = sync.NewCond(&tl.mu) }

// acquire blocks the calling connection goroutine until the lock of the
// given type is granted. Blocking here is the intended semantics: the
// client issued a Lock and stalls until the server grants it; other
// connections keep progressing on their own goroutines.
func (tl *targetLock) acquire(excl bool) {
	tl.mu.Lock()
	for tl.exclusive || (excl && tl.shared > 0) {
		tl.cond.Wait()
	}
	if excl {
		tl.exclusive = true
	} else {
		tl.shared++
	}
	tl.mu.Unlock()
}

func (tl *targetLock) release(excl bool) {
	tl.mu.Lock()
	if excl {
		tl.exclusive = false
	} else if tl.shared > 0 {
		tl.shared--
	}
	tl.mu.Unlock()
	tl.cond.Broadcast()
}

// barrier is the rendezvous of one window's world (OpBarrier, the wire
// transport's Fence). Arrivals block until `world` clients arrive or the
// server starts draining.
type barrier struct {
	mu    sync.Mutex
	world int
	n     int
	ch    chan struct{} // closed to release the current generation
	down  bool          // server draining: release everyone with an error
}

func (b *barrier) arrive() error {
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		return ErrShutdown
	}
	if b.world <= 1 {
		b.mu.Unlock()
		return nil
	}
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	b.n++
	if b.n == b.world {
		close(b.ch)
		b.n = 0
		b.ch = nil
		b.mu.Unlock()
		return nil
	}
	ch := b.ch
	b.mu.Unlock()
	<-ch
	b.mu.Lock()
	down := b.down
	b.mu.Unlock()
	if down {
		return ErrShutdown
	}
	return nil
}

// abort releases every waiter with ErrShutdown and fails future arrivals.
func (b *barrier) abort() {
	b.mu.Lock()
	b.down = true
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
		b.n = 0
	}
	b.mu.Unlock()
}

// serverWindow is the server-side state of one exposed window.
type serverWindow struct {
	name  string
	mem   *rma.Memory
	locks []targetLock
	bar   barrier

	mu       sync.Mutex
	world    int // 0 until pinned by config or the first handshake
	nextRank int32

	// sinks maps a rank to the connection it dedicated with OpSubscribe:
	// the server pushes OpNotify frames for every PutNotify to all
	// registered sinks except the writer's own rank. Guarded by sinkMu;
	// snapshot under it, write to the sink outside it.
	sinkMu sync.Mutex
	sinks  map[int32]*serverConn
}

// setSink registers the notification sink of rank. A re-subscribe
// replaces the previous sink: the newest dedicated connection wins,
// matching a client that redialed after a failure.
func (w *serverWindow) setSink(rank int32, c *serverConn) {
	w.sinkMu.Lock()
	if w.sinks == nil {
		w.sinks = make(map[int32]*serverConn)
	}
	w.sinks[rank] = c
	w.sinkMu.Unlock()
}

// dropSink clears rank's sink only if it is still c — a dead connection
// must not deregister its replacement.
func (w *serverWindow) dropSink(rank int32, c *serverConn) {
	w.sinkMu.Lock()
	if w.sinks[rank] == c {
		delete(w.sinks, rank)
	}
	w.sinkMu.Unlock()
}

// snapshotSinks copies the sinks of every rank except skip.
func (w *serverWindow) snapshotSinks(skip int32) []*serverConn {
	w.sinkMu.Lock()
	out := make([]*serverConn, 0, len(w.sinks))
	for r, c := range w.sinks {
		if r != skip && c != nil {
			out = append(out, c)
		}
	}
	w.sinkMu.Unlock()
	return out
}

// setWorld pins or validates the window's world size.
func (w *serverWindow) setWorld(world int32) error {
	if world <= 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.world == 0 {
		w.world = int(world)
		w.bar.mu.Lock()
		w.bar.world = int(world)
		w.bar.mu.Unlock()
		return nil
	}
	if w.world != int(world) {
		return fmt.Errorf("%w: client declared world %d, window pinned to %d", ErrBadWorld, world, w.world)
	}
	return nil
}

// grantRank validates a requested rank or assigns the next free one.
// A rank is the client's identity inside the window's world, so an
// explicit request must name a member; auto-assignment cycles through
// the world, which keeps short-lived diagnostic clients working without
// ever minting an out-of-world identity.
func (w *serverWindow) grantRank(req int32) (int32, error) {
	if req >= int32(w.mem.Targets()) {
		return 0, fmt.Errorf("%w: rank %d outside world of %d", ErrBadWorld, req, w.mem.Targets())
	}
	if req >= 0 {
		return req, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	r := w.nextRank
	w.nextRank = (w.nextRank + 1) % int32(w.mem.Targets())
	return r, nil
}

// Server exposes windows to wire clients. Create with Serve; stop with
// Shutdown.
type Server struct {
	cfg      ServeConfig
	ln       net.Listener
	windows  map[string]*serverWindow
	def      *serverWindow
	draining atomic.Bool

	connWG   sync.WaitGroup
	acceptWG sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// Metrics (nil-safe: all remain nil when cfg.Registry is nil).
	mConns    *obsv.Gauge
	mFramesIn *obsv.Counter
	mFramesOu *obsv.Counter
	mBytesIn  *obsv.Counter
	mBytesOut *obsv.Counter
	opm       [256]atomic.Pointer[opMetrics] // per-op series, resolved once per op code

	acceptErr atomic.Pointer[error]
}

// opMetrics are the registry series of one op code.
type opMetrics struct {
	wall *obsv.Histogram
	reqs *obsv.Counter
}

// opMetrics returns op's series, looking them up in the registry on the
// op's first request only: the lookup formats and sorts labels, which
// does not belong on the per-message path.
func (s *Server) opMetrics(op byte) *opMetrics {
	if m := s.opm[op].Load(); m != nil {
		return m
	}
	reg, name := s.cfg.Registry, obsv.L("op", OpName(op))
	m := &opMetrics{wall: reg.Histogram("wire_server_op_wall_ns", name), reqs: reg.Counter("wire_server_requests_total", name)}
	s.opm[op].Store(m)
	return m
}

// Errors of server construction.
var (
	ErrNoWindows = errors.New("wire: server needs at least one window")
)

// Serve starts listening on cfg.Network/cfg.Addr and accepting clients
// in a background goroutine. It returns as soon as the listener is
// bound, so callers can read the effective address (Addr) — handy with
// ":0" TCP listeners in tests.
func Serve(cfg ServeConfig) (*Server, error) {
	if len(cfg.Windows) == 0 {
		return nil, ErrNoWindows
	}
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	s := &Server{
		cfg:     cfg,
		windows: make(map[string]*serverWindow, len(cfg.Windows)),
		conns:   make(map[net.Conn]struct{}),
	}
	for i, spec := range cfg.Windows {
		if _, dup := s.windows[spec.Name]; dup {
			return nil, fmt.Errorf("wire: duplicate window name %q", spec.Name)
		}
		sw := &serverWindow{name: spec.Name, mem: rma.NewMemory(spec.Regions)}
		sw.locks = make([]targetLock, len(spec.Regions))
		for t := range sw.locks {
			sw.locks[t].init()
		}
		if cfg.World > 0 {
			sw.world = cfg.World
			sw.bar.world = cfg.World
		}
		s.windows[spec.Name] = sw
		if i == 0 {
			s.def = sw
		}
	}
	if reg := cfg.Registry; reg != nil {
		s.mConns = reg.Gauge("wire_server_open_connections")
		s.mFramesIn = reg.Counter("wire_server_frames_total", obsv.L("dir", "in"))
		s.mFramesOu = reg.Counter("wire_server_frames_total", obsv.L("dir", "out"))
		s.mBytesIn = reg.Counter("wire_server_bytes_total", obsv.L("dir", "in"))
		s.mBytesOut = reg.Counter("wire_server_bytes_total", obsv.L("dir", "out"))
	}
	ln, err := net.Listen(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s %s: %w", cfg.Network, cfg.Addr, err)
	}
	s.ln = ln
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's effective address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.draining.Load() {
				e := err
				s.acceptErr.Store(&e)
				s.logf("wire: accept: %v", err)
			}
			return
		}
		conn = adopt(conn)
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		if s.mConns != nil {
			s.mConns.Set(int64(s.openConns()))
		}
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) openConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// Shutdown gracefully drains the server: the listener closes, blocked
// barriers release with ErrShutdown, in-flight requests complete, and
// connections still open after the drain window are force-closed. It is
// the SIGTERM path of cmd/clampi-serve.
func (s *Server) Shutdown(drain time.Duration) error {
	s.draining.Store(true)
	err := s.ln.Close()
	for _, w := range s.windows {
		w.bar.abort()
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	timer := time.NewTimer(drain) //clampi:walltime daemon drain window is genuinely wall-clock
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		s.connWG.Wait()
	}
	s.acceptWG.Wait()
	return err
}

// conn is the per-connection server state.
type serverConn struct {
	s    *Server
	conn net.Conn
	fr   *frameReader

	// wmu serializes writers of the connection: the conn's own handler
	// goroutine (responses) and any other conn's goroutine pushing
	// OpNotify frames into a subscribed sink. It guards wbuf too.
	wmu  sync.Mutex
	wbuf []byte

	win        *serverWindow
	rank       int32
	subscribed bool           // this conn is its rank's notification sink
	held       map[int32]bool // target -> exclusive? (locks to release on death)
}

// serveConn runs one connection to completion.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	c := &serverConn{s: s, conn: conn, fr: newFrameReader(conn, s.cfg.MaxPayload), held: make(map[int32]bool)}
	defer func() {
		// Release whatever passive-target locks the client died holding,
		// so one crashed client never wedges the fleet.
		if c.win != nil {
			for t, excl := range c.held {
				c.win.locks[t].release(excl)
			}
			if c.subscribed {
				c.win.dropSink(c.rank, c)
			}
		}
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		if s.mConns != nil {
			s.mConns.Set(int64(s.openConns()))
		}
	}()
	for {
		f, err := c.fr.next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !s.draining.Load() {
				s.logf("wire: conn %v: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if s.mFramesIn != nil {
			s.mFramesIn.Inc()
			s.mBytesIn.Add(int64(headerSize + len(f.Payload) + checksumSize))
		}
		if c.handle(f) || s.draining.Load() {
			return
		}
	}
}

// handle dispatches one request frame and writes the response. The
// return value reports whether the connection should close.
func (c *serverConn) handle(f Frame) (stop bool) {
	op := f.Op
	var start time.Time
	var m *opMetrics
	metered := c.s.cfg.Registry != nil
	if metered {
		// Counted at dispatch: the client may read its reply before the
		// handler returns.
		m = c.s.opMetrics(op)
		m.reqs.Inc()
		start = time.Now() //clampi:walltime daemon per-op latency histograms are wall-clock by design (DESIGN.md §13)
	}
	var err error
	switch op {
	case OpHello:
		err = c.hello(f)
	case OpGet:
		err = c.get(f)
	case OpGetBatch:
		err = c.getBatch(f)
	case OpPut:
		err = c.put(f)
	case OpPutNotify:
		err = c.putNotify(f)
	case OpSubscribe:
		err = c.subscribe(f)
	case OpAccumulate:
		err = c.accumulate(f)
	case OpChecksum:
		err = c.checksum(f)
	case OpFlush:
		// The notify pump's marker on a subscribe connection: the ack
		// follows every push written before it (per-connection FIFO).
		// Window.Flush completes locally and never sends one.
		err = c.ack(f.Seq)
	case OpLock:
		err = c.lock(f, true)
	case OpUnlock:
		err = c.lock(f, false)
	case OpBarrier:
		err = c.barrier(f)
	case OpDetach:
		_ = c.ack(f.Seq)
		return true
	default:
		err = c.fail(f.Seq, fmt.Errorf("%w: unexpected op %s", ErrProto, OpName(op)))
	}
	if metered {
		m.wall.Observe(simtime.FromReal(time.Since(start))) //clampi:walltime daemon per-op latency histograms are wall-clock by design
	}
	if err != nil {
		c.s.logf("wire: conn %v: %s: %v", c.conn.RemoteAddr(), OpName(op), err)
		return true
	}
	return false
}

// send seals the frame under construction in wbuf (started with
// beginFrame, body appended in place) and writes it with a single Write.
// The caller holds wmu, which serializes the connection's own responses
// against notification pushes from other connections' goroutines. A
// buffer that grew past frameBufKeep is dropped after the write.
func (c *serverConn) send() error {
	c.wbuf = sealFrame(c.wbuf, 0, nil)
	if c.s.mFramesOu != nil {
		c.s.mFramesOu.Inc()
		c.s.mBytesOut.Add(int64(len(c.wbuf)))
	}
	_, err := c.conn.Write(c.wbuf)
	if cap(c.wbuf) > frameBufKeep {
		c.wbuf = nil
	}
	return err
}

// push writes one OpNotify frame into this (subscribed) connection from
// another connection's handler goroutine; n.Data may alias the writer's
// request frame, which outlives the call. Pushes carry sequence 0: they
// answer no request, and the client's pump matches them by op alone.
// A write failure is swallowed — the sink's own read loop observes the
// broken connection and deregisters it; the writer's PutNotify must not
// fail because one subscriber died (its queue overflow semantics cover
// the loss).
func (c *serverConn) push(n notifyPayload) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendNotify(beginFrame(c.wbuf[:0], OpNotify, 0), n)
	_ = c.send()
}

// ack answers a request with the payload-free success frame.
func (c *serverConn) ack(seq uint64) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = beginFrame(c.wbuf[:0], OpAck, seq)
	return c.send()
}

// fail answers a request with a classified OpError frame. Only a broken
// connection is returned as an error (closing the connection); the
// request-level failure travels to the client instead.
func (c *serverConn) fail(seq uint64, reqErr error) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendError(beginFrame(c.wbuf[:0], OpError, seq), errorToCode(reqErr), reqErr.Error())
	return c.send()
}

// needWindow guards data ops against pre-handshake use.
func (c *serverConn) needWindow(seq uint64) (*serverWindow, error) {
	if c.win == nil {
		return nil, c.fail(seq, fmt.Errorf("%w: data op before handshake", ErrProto))
	}
	return c.win, nil
}

func (c *serverConn) hello(f Frame) error {
	h, err := decodeHello(f.Payload)
	if err != nil {
		return c.fail(f.Seq, err)
	}
	w := c.s.def
	if h.Window != "" {
		var ok bool
		if w, ok = c.s.windows[h.Window]; !ok {
			return c.fail(f.Seq, fmt.Errorf("%w: %q", ErrBadWindow, h.Window))
		}
	}
	if err := w.setWorld(h.World); err != nil {
		return c.fail(f.Seq, err)
	}
	rank, err := w.grantRank(h.Rank)
	if err != nil {
		return c.fail(f.Seq, err)
	}
	c.win = w
	c.rank = rank
	sizes := make([]int64, w.mem.Targets())
	for i := range sizes {
		sizes[i] = int64(w.mem.Size(i))
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendWelcome(beginFrame(c.wbuf[:0], OpWelcome, f.Seq), welcomePayload{Rank: c.rank, Regions: sizes})
	return c.send()
}

// checkRange validates a (target, disp, size) triple against the window.
func checkRange(w *serverWindow, r rangeReq) error {
	switch err := w.mem.Check(int(r.Target), int(r.Disp), int(r.Size)); {
	case err == nil:
		return nil
	case errors.Is(err, rma.ErrRankRange):
		return fmt.Errorf("%w: target %d of %d regions", err, r.Target, w.mem.Targets())
	default:
		return fmt.Errorf("%w: [%d,%d) of %dB region", err, r.Disp, r.Disp+r.Size, w.mem.Size(int(r.Target)))
	}
}

func (c *serverConn) get(f Frame) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	r, derr := decodeRange(f.Payload)
	if derr != nil {
		return c.fail(f.Seq, derr)
	}
	if verr := checkRange(w, r); verr != nil {
		return c.fail(f.Seq, verr)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// The frame CRC is taken after Read, over the private copy, so
	// payload and CRC agree whatever writers do next.
	c.wbuf = w.mem.Read(beginFrame(c.wbuf[:0], OpData, f.Seq), int(r.Target), int(r.Disp), int(r.Size))
	return c.send()
}

func (c *serverConn) getBatch(f Frame) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	n, derr := decodeBatch(f.Payload)
	if derr != nil {
		return c.fail(f.Seq, derr)
	}
	// Validate every descriptor where it lies in the request frame before
	// the first byte of the response is built.
	total := 0
	for i := 0; i < n; i++ {
		r := batchRange(f.Payload, i)
		if verr := checkRange(w, r); verr != nil {
			return c.fail(f.Seq, verr)
		}
		total += int(r.Size)
		if total > c.s.cfg.MaxPayload {
			return c.fail(f.Seq, fmt.Errorf("%w: batch response %dB", ErrFrameTooBig, total))
		}
	}
	// One response frame for the whole batch: this is where k coalesced
	// client ops become 2 syscalls instead of 2k.
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = beginFrame(c.wbuf[:0], OpData, f.Seq)
	for i := 0; i < n; i++ {
		r := batchRange(f.Payload, i)
		c.wbuf = w.mem.Read(c.wbuf, int(r.Target), int(r.Disp), int(r.Size))
	}
	return c.send()
}

func (c *serverConn) put(f Frame) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	p, derr := decodePut(f.Payload)
	if derr != nil {
		return c.fail(f.Seq, derr)
	}
	r := rangeReq{Target: p.Target, Disp: p.Disp, Size: int64(len(p.Data))}
	if verr := checkRange(w, r); verr != nil {
		return c.fail(f.Seq, verr)
	}
	w.mem.Write(p.Data, int(p.Target), int(p.Disp))
	return c.ack(f.Seq)
}

// putNotify writes like put and then pushes an OpNotify descriptor into
// every subscribed sink except the writer's own rank. Pushes complete
// before the writer's ack, so by the time its PutNotify call returns the
// descriptor is in every sink's socket; a subscriber that pumps after
// the next barrier therefore observes every pre-barrier write (frames on
// one connection are FIFO).
func (c *serverConn) putNotify(f Frame) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	p, derr := decodePutNotify(f.Payload)
	if derr != nil {
		return c.fail(f.Seq, derr)
	}
	r := rangeReq{Target: p.Target, Disp: p.Disp, Size: int64(len(p.Data))}
	if verr := checkRange(w, r); verr != nil {
		return c.fail(f.Seq, verr)
	}
	w.mem.Write(p.Data, int(p.Target), int(p.Disp))
	n := notifyPayload{
		Origin: c.rank,
		Target: p.Target,
		Disp:   p.Disp,
		Len:    int64(len(p.Data)),
		Tag:    p.Tag,
	}
	if len(p.Data) > 0 && len(p.Data) <= notify.DataMax {
		n.HasData = true
		n.Data = p.Data
	}
	for _, sink := range w.snapshotSinks(c.rank) {
		sink.push(n)
	}
	return c.ack(f.Seq)
}

// subscribe dedicates this connection as its rank's notification sink.
// The client sends it on a freshly dialed connection that it thereafter
// uses only for OpFlush pump markers, so pushed frames and the marker's
// ack share one FIFO stream.
func (c *serverConn) subscribe(f Frame) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	if len(f.Payload) != 0 {
		return c.fail(f.Seq, fmt.Errorf("%w: subscribe payload %dB", ErrProto, len(f.Payload)))
	}
	w.setSink(c.rank, c)
	c.subscribed = true
	return c.ack(f.Seq)
}

func (c *serverConn) accumulate(f Frame) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	a, derr := decodeAcc(f.Payload)
	if derr != nil {
		return c.fail(f.Seq, derr)
	}
	if int(a.Kind) >= len(accDatatypes) {
		return c.fail(f.Seq, fmt.Errorf("%w: element kind %d", ErrBadAccumulate, a.Kind))
	}
	dtype := accDatatypes[a.Kind]
	elem := rma.AccumulateElemSize(dtype)
	if len(a.Data)%elem != 0 {
		return c.fail(f.Seq, fmt.Errorf("%w: %dB payload for %dB elements", ErrBadAccumulate, len(a.Data), elem))
	}
	r := rangeReq{Target: a.Target, Disp: a.Disp, Size: int64(len(a.Data))}
	if verr := checkRange(w, r); verr != nil {
		return c.fail(f.Seq, verr)
	}
	w.mem.Accumulate(a.Data, int(a.Target), int(a.Disp), dtype, rma.Op(a.Op))
	return c.ack(f.Seq)
}

func (c *serverConn) checksum(f Frame) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	r, derr := decodeRange(f.Payload)
	if derr != nil {
		return c.fail(f.Seq, derr)
	}
	if verr := checkRange(w, r); verr != nil {
		return c.fail(f.Seq, verr)
	}
	sum := w.mem.Checksum(int(r.Target), int(r.Disp), int(r.Size))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = binary.LittleEndian.AppendUint64(beginFrame(c.wbuf[:0], OpData, f.Seq), sum)
	return c.send()
}

func (c *serverConn) lock(f Frame, acquire bool) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	l, derr := decodeLock(f.Payload)
	if derr != nil {
		return c.fail(f.Seq, derr)
	}
	if l.Target < 0 || int(l.Target) >= w.mem.Targets() {
		return c.fail(f.Seq, fmt.Errorf("%w: target %d of %d regions", rma.ErrRankRange, l.Target, w.mem.Targets()))
	}
	typ := rma.LockType(l.Type)
	if typ != rma.LockShared && typ != rma.LockExclusive {
		return c.fail(f.Seq, fmt.Errorf("%w: lock type %d", ErrProto, l.Type))
	}
	excl := typ == rma.LockExclusive
	if acquire {
		// held records one lock per target: a second would leak a shared
		// count past the disconnect release, or wait on itself.
		if _, ok := c.held[l.Target]; ok {
			return c.fail(f.Seq, fmt.Errorf("%w: target %d already locked by this connection", ErrProto, l.Target))
		}
		w.locks[l.Target].acquire(excl)
		c.held[l.Target] = excl
	} else {
		if heldExcl, ok := c.held[l.Target]; ok {
			w.locks[l.Target].release(heldExcl)
			delete(c.held, l.Target)
		}
	}
	return c.ack(f.Seq)
}

func (c *serverConn) barrier(f Frame) error {
	w, err := c.needWindow(f.Seq)
	if w == nil {
		return err
	}
	if berr := w.bar.arrive(); berr != nil {
		return c.fail(f.Seq, berr)
	}
	return c.ack(f.Seq)
}
