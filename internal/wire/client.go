package wire

// The client half of the transport: a pooled connection set to one
// clampi-serve daemon plus the synchronous RPC primitive window.go
// builds the rma.Window surface on.
//
// Error classification is the load-bearing part. Every failure mode of a
// real socket is mapped onto the backend-independent rma sentinel family
// so the resilience layer (core's netGet retry loop, the circuit
// breaker) works identically over the wire and over the simulated
// backend:
//
//	socket condition            surfaces as
//	read/write timeout          rma.ErrTimeout   (matches ErrTransient)
//	EOF / reset / refused       rma.ErrTransient
//	damaged frame (checksum)    ErrChecksum      (matches rma.ErrCorrupt)
//	malformed frame             ErrProto         (matches rma.ErrCorrupt)
//	server draining             ErrShutdown      (matches ErrTransient)
//	server OpError              the sentinel its code stands for
//
// A connection that produced a transport-level failure is poisoned
// (closed, never pooled again): after a timeout or a damaged frame the
// request/response stream can no longer be trusted to be aligned, and
// the next attempt dials fresh.

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"clampi/internal/rma"
)

// DialConfig configures a client connection pool to one daemon.
type DialConfig struct {
	// Network is "tcp" or "unix"; Addr is the daemon's address.
	Network, Addr string
	// Window names the server-side window to attach to; empty selects
	// the server's default (first) window.
	Window string
	// Rank is the rank identity to request; RankAuto lets the server
	// assign the next free one.
	Rank int
	// World declares the number of participating clients — the barrier
	// population. Zero leaves it to other clients (or the server config)
	// to pin.
	World int
	// PoolSize caps the idle connections kept for reuse; zero selects
	// DefaultPoolSize.
	PoolSize int
	// MaxPayload bounds frame payloads; zero selects DefaultMaxPayload.
	MaxPayload int
	// DialTimeout bounds connection establishment and the handshake
	// round trip; zero selects DefaultDialTimeout.
	DialTimeout time.Duration
	// FrameTap, when set, observes (and may mutate) every raw inbound
	// frame before checksum verification. It is the chaos hook: a tap
	// that flips a bit turns into genuine on-the-wire corruption, which
	// the frame checksum catches and the retry policy heals.
	FrameTap func(frame []byte)
}

// RankAuto requests server-assigned rank identity.
const RankAuto = -1

// Defaults for DialConfig fields left zero.
const (
	DefaultPoolSize    = 2
	DefaultDialTimeout = 5 * time.Second
)

// Client is a pooled set of connections to one daemon, attached to one
// window. Safe for concurrent use; each RPC borrows a connection for
// its full request/response exchange.
type Client struct {
	cfg     DialConfig
	rank    int
	regions []int64 // per-target region sizes from the handshake

	seq atomic.Uint64

	mu     sync.Mutex
	idle   []*clientConn
	closed bool
}

// ErrClientClosed reports an RPC on a closed client.
var ErrClientClosed = errors.New("wire: client closed")

// clientConn is one pooled connection: socket, frame reader, write
// buffer. Owned by a single RPC at a time.
type clientConn struct {
	c     net.Conn
	fr    *frameReader
	wb    []byte
	armed bool // a socket deadline is set
}

// send builds one request frame in the connection's write buffer — body
// appends the start of the payload, nil for none, and data, the caller's
// bytes, follow it — and writes it with a single Write. A frame that
// would grow the buffer past frameBufKeep leaves in three Writes instead:
// header and body, then data where it lies, then the CRC chained over
// both, so a large put costs no copy of its bytes. A buffer that grew
// past frameBufKeep anyway (a huge body) is dropped after the write.
func (cc *clientConn) send(op byte, seq uint64, body func(buf []byte) []byte, data []byte) error {
	cc.wb = beginFrame(cc.wb[:0], op, seq)
	if body != nil {
		cc.wb = body(cc.wb)
	}
	var err error
	if n := len(cc.wb); n+len(data)+checksumSize > frameBufKeep {
		cc.wb = sealFrame(cc.wb, 0, data)
		_, err = cc.c.Write(cc.wb[:n])
		if err == nil {
			_, err = cc.c.Write(data)
		}
		if err == nil {
			_, err = cc.c.Write(cc.wb[n:])
		}
	} else {
		cc.wb = sealFrame(append(cc.wb, data...), 0, nil)
		_, err = cc.c.Write(cc.wb)
	}
	if cap(cc.wb) > frameBufKeep {
		cc.wb = nil
	}
	return err
}

// setDeadline bounds the connection's next exchange to d of wall time;
// d <= 0 clears a deadline an earlier exchange armed and is free when
// none is.
func (cc *clientConn) setDeadline(d time.Duration) {
	if d > 0 {
		cc.c.SetDeadline(time.Now().Add(d)) //clampi:walltime per-op socket deadline mapped from the virtual RetryPolicy.Deadline
		cc.armed = true
	} else if cc.armed {
		cc.c.SetDeadline(time.Time{}) //clampi:walltime clears a stale per-op socket deadline
		cc.armed = false
	}
}

// Dial connects to a daemon, performs the handshake on an initial
// connection, and returns a client holding the granted rank and the
// window's region sizes.
func Dial(cfg DialConfig) (*Client, error) {
	if cfg.Network == "" {
		cfg.Network = "tcp"
	}
	if cfg.MaxPayload <= 0 {
		cfg.MaxPayload = DefaultMaxPayload
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	cl := &Client{cfg: cfg, rank: cfg.Rank}
	cc, err := cl.dialConn()
	if err != nil {
		return nil, err
	}
	cl.put(cc)
	return cl, nil
}

// Rank returns the rank the server granted.
func (cl *Client) Rank() int { return cl.rank }

// Regions returns the per-target region sizes of the attached window.
func (cl *Client) Regions() []int64 { return cl.regions }

// World returns the number of targets (= ranks) in the window's world.
func (cl *Client) World() int { return len(cl.regions) }

// Close closes every pooled connection after sending an orderly Detach.
func (cl *Client) Close() error {
	cl.mu.Lock()
	idle := cl.idle
	cl.idle = nil
	cl.closed = true
	cl.mu.Unlock()
	for _, cc := range idle {
		// Best-effort goodbye; the server also handles abrupt closes.
		cc.setDeadline(time.Second)
		if err := cc.send(OpDetach, cl.seq.Add(1), nil, nil); err == nil {
			cc.fr.next()
		}
		cc.c.Close()
	}
	return nil
}

// adopt converts every established connection, client and server side,
// once where it is born: blocking (conn_linux.go) on Linux, the identity
// elsewhere. A variable only so a test can interpose on the result.
var adopt = blocking

// dialConn establishes and handshakes one new connection.
func (cl *Client) dialConn() (*clientConn, error) {
	d := net.Dialer{Timeout: cl.cfg.DialTimeout}
	c, err := d.Dial(cl.cfg.Network, cl.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s %s: %w", rma.ErrTransient, cl.cfg.Network, cl.cfg.Addr, err)
	}
	c = adopt(c)
	cc := &clientConn{c: c, fr: newFrameReader(c, cl.cfg.MaxPayload)}
	cc.fr.tap = cl.cfg.FrameTap
	if err := cl.handshake(cc); err != nil {
		c.Close()
		return nil, err
	}
	return cc, nil
}

// handshake runs the Hello/Welcome exchange on a fresh connection,
// bounded by the dial timeout.
func (cl *Client) handshake(cc *clientConn) error {
	cl.mu.Lock()
	rank := cl.rank
	cl.mu.Unlock()
	hello := helloPayload{Rank: int32(rank), World: int32(cl.cfg.World), Window: cl.cfg.Window}
	cc.setDeadline(cl.cfg.DialTimeout)
	seq := cl.seq.Add(1)
	if err := cc.send(OpHello, seq, func(b []byte) []byte { return appendHello(b, hello) }, nil); err != nil {
		return classify(err)
	}
	f, err := cc.fr.next()
	if err != nil {
		return classify(err)
	}
	if f.Seq != seq {
		return fmt.Errorf("%w: handshake response seq %d (want %d)", ErrProto, f.Seq, seq)
	}
	switch f.Op {
	case OpWelcome:
		w, derr := decodeWelcome(f.Payload)
		if derr != nil {
			return derr
		}
		cl.mu.Lock()
		if cl.regions == nil {
			// First handshake pins the granted rank; later connections
			// request it explicitly, so the grant is always the same.
			cl.rank = int(w.Rank)
			cl.regions = w.Regions
		}
		cl.mu.Unlock()
		return nil
	case OpError:
		return errorFromFrame(f.Payload)
	default:
		return fmt.Errorf("%w: handshake answered with %s", ErrProto, OpName(f.Op))
	}
}

// get borrows a pooled connection or dials a new one.
func (cl *Client) get() (*clientConn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, ErrClientClosed
	}
	if n := len(cl.idle); n > 0 {
		cc := cl.idle[n-1]
		cl.idle = cl.idle[:n-1]
		cl.mu.Unlock()
		return cc, nil
	}
	cl.mu.Unlock()
	return cl.dialConn()
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full or the client closed).
func (cl *Client) put(cc *clientConn) {
	cc.fr.trim() // an idle pooled connection must not pin an oversized frame buffer
	cl.mu.Lock()
	if !cl.closed && len(cl.idle) < cl.cfg.PoolSize {
		cl.idle = append(cl.idle, cc)
		cl.mu.Unlock()
		return
	}
	cl.mu.Unlock()
	cc.c.Close()
}

// RPC performs one synchronous exchange: request out, response in.
// body appends the request payload to the frame under construction in
// the connection's write buffer (nil for an empty payload), and data,
// the caller's bytes of a put, ends the payload (nil for none). deadline,
// when positive, bounds the whole exchange in wall time (rma.ErrTimeout
// on expiry). onData consumes an OpData response's payload — valid only
// during the call; pass nil to require a bare Ack.
func (cl *Client) RPC(op byte, body func(buf []byte) []byte, data []byte, deadline time.Duration, onData func(data []byte) error) error {
	cc, err := cl.get()
	if err != nil {
		return err
	}
	healthy, err := cl.exchange(cc, op, body, data, deadline, onData)
	if healthy {
		cl.put(cc)
	} else {
		cc.c.Close()
	}
	return err
}

// exchange runs one request/response round on cc. healthy reports
// whether the stream is still aligned afterwards — true after a
// success or a server-reported error, false after any transport or
// protocol failure, which poisons the connection.
func (cl *Client) exchange(cc *clientConn, op byte, body func(buf []byte) []byte, data []byte, deadline time.Duration, onData func(data []byte) error) (healthy bool, err error) {
	cc.setDeadline(deadline)
	seq := cl.seq.Add(1)
	if err := cc.send(op, seq, body, data); err != nil {
		return false, classify(err)
	}
	f, err := cc.fr.next()
	if err != nil {
		return false, classify(err)
	}
	if f.Seq != seq {
		return false, fmt.Errorf("%w: response seq %d (want %d)", ErrProto, f.Seq, seq)
	}
	switch f.Op {
	case OpAck:
		if onData != nil {
			return false, fmt.Errorf("%w: bare ack where %s response expected", ErrProto, OpName(op))
		}
		return true, nil
	case OpData:
		if onData == nil {
			return false, fmt.Errorf("%w: unexpected data response to %s", ErrProto, OpName(op))
		}
		err := onData(f.Payload)
		return err == nil, err
	case OpError:
		code, msg, derr := decodeError(f.Payload)
		if derr != nil {
			return false, derr
		}
		// The exchange itself was healthy, so the connection stays usable
		// — unless the server told us it is going away.
		return code != CodeShutdown, codeToError(code, msg)
	default:
		return false, fmt.Errorf("%w: response op %s", ErrProto, OpName(f.Op))
	}
}

// classify maps a transport-level failure onto the rma sentinel family.
// Errors already carrying a sentinel (decode failures, server errors)
// pass through unchanged.
func classify(err error) error {
	if err == nil || errors.Is(err, rma.ErrTransient) {
		return err
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %w", rma.ErrTimeout, err)
	}
	// Anything else a socket produces mid-exchange — EOF, reset, refused,
	// closed — is transient from the caller's perspective: the op did not
	// take effect and a retry over a fresh connection may succeed.
	return fmt.Errorf("%w: %w", rma.ErrTransient, err)
}
