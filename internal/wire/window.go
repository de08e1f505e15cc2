package wire

// Window implements the rma.Window contract over a socket client, so the
// caching layer (core), the getter shims, the batcher and the fault
// injector compose over a real transport unchanged. The origin-side
// state machine — epoch discipline, validation order, error sentinels —
// mirrors internal/mpi.Win exactly; what changes is only where the bytes
// live (the daemon's memory) and what an operation costs (a real round
// trip, charged to the virtual clock at its measured wall duration).
//
// Because every op is a synchronous RPC, the weak-consistency contract
// is satisfied trivially: a Get's dst is filled before the call returns,
// strictly earlier than the "after the next completion call" point the
// contract promises. Completion calls still matter — they are the epoch
// closure events the cache invalidates on — so Flush/Unlock/Fence close
// the local epoch (running listeners, then incrementing) just like the
// simulated backend. A Flush has nothing in flight to wait for, so it is
// that local closure and nothing else: no frame crosses the socket.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// Endpoint is the rank's attachment to the wire transport: the granted
// rank identity, the world size (the window's region count), and the
// virtual clock the round trips are charged to.
type Endpoint struct {
	id    int
	size  int
	clock *simtime.Clock
}

// ID returns the rank id the server granted.
func (e *Endpoint) ID() int { return e.id }

// Size returns the number of ranks (regions) in the world.
func (e *Endpoint) Size() int { return e.size }

// Clock returns the rank's virtual clock. Wire ops advance it by their
// measured wall duration, so virtual time tracks wall time 1:1 on this
// backend.
func (e *Endpoint) Clock() *simtime.Clock { return e.clock }

// Window is one client process's handle on a daemon-hosted window.
// Like every rma.Window, it must be used from one goroutine (origin
// state is private per MPI semantics); the Client underneath may be
// shared across windows and goroutines.
type Window struct {
	cl   *Client
	ep   *Endpoint
	info rma.Info
	owns bool // Free also closes the client (package-level Open path)

	freed     bool
	epoch     int64
	listeners []rma.EpochListener

	lockedTargets map[int]rma.LockType
	lockedAll     bool
	fenceOpen     bool

	// opDeadline bounds each subsequent op (rma.DeadlineWindow); zero
	// means unbounded.
	opDeadline simtime.Duration

	// rtt holds the per-target round-trip EWMAs behind the
	// rma.LocalityWindow answers. Origin state, single-goroutine like
	// the rest of the Window — no atomics needed.
	rtt []rttStat

	// Notification state (rma.NotifyWindow, notify.go): the dedicated
	// subscribe connection the server pushes OpNotify frames into, the
	// local bounded queue a pump drains them into, and the latched
	// pump-failure flag that degrades consumers to blanket invalidation.
	nq        *notify.Queue
	nc        *clientConn
	notifyBad bool
}

// rttStat is one target's measured fill-cost estimate.
type rttStat struct {
	ewmaNs float64 // EWMA of the per-op round-trip duration
	seen   bool
}

// Static interface conformance, matching the simulated backend plus the
// deadline extension only a wall-clock transport can honour.
var (
	_ rma.Window          = (*Window)(nil)
	_ rma.BatchWindow     = (*Window)(nil)
	_ rma.IntegrityWindow = (*Window)(nil)
	_ rma.LocalityWindow  = (*Window)(nil)
	_ rma.DeadlineWindow  = (*Window)(nil)
	_ rma.Endpoint        = (*Endpoint)(nil)
)

// NewWindow attaches a Window to the client's server-side window. info
// carries the CLaMPI hints exactly as on the simulated backend.
func (cl *Client) NewWindow(info rma.Info) *Window {
	return &Window{
		cl:   cl,
		ep:   &Endpoint{id: cl.rank, size: cl.World(), clock: simtime.NewClock()},
		info: info,
		rtt:  make([]rttStat, len(cl.regions)),
	}
}

// Open dials a daemon and returns a Window owning the connection pool:
// Free closes it. It is the one-call path the clampi.Dial surface uses.
func Open(cfg DialConfig, info rma.Info) (*Window, error) {
	cl, err := Dial(cfg)
	if err != nil {
		return nil, err
	}
	w := cl.NewWindow(info)
	w.owns = true
	return w, nil
}

// Client returns the underlying connection pool (for sharing across
// windows or inspecting the handshake results).
func (w *Window) Client() *Client { return w.cl }

// Endpoint returns the owning rank's transport endpoint.
func (w *Window) Endpoint() rma.Endpoint { return w.ep }

// Info returns the window's creation hints.
func (w *Window) Info() rma.Info { return w.info }

// Local returns nil: a wire client exposes no region of its own — all
// window memory lives in the daemon. (The caching layer never touches
// Local; applications that host data do so by Putting it to the server
// or by pre-filling regions in ServeConfig.)
func (w *Window) Local() []byte { return nil }

// RegionSize returns the size of target's exposed region, known since
// the handshake — no round trip.
func (w *Window) RegionSize(target int) (int, error) {
	if target < 0 || target >= len(w.cl.regions) {
		return 0, rma.ErrRankRange
	}
	return int(w.cl.regions[target]), nil
}

// Epoch returns the number of epochs this origin closed on this window.
func (w *Window) Epoch() int64 { return w.epoch }

// AddEpochListener registers f to run at every epoch closure by this
// origin on this window.
func (w *Window) AddEpochListener(f rma.EpochListener) {
	if f != nil {
		w.listeners = append(w.listeners, f)
	}
}

// SetOpDeadline bounds every subsequent operation to d of virtual time,
// mapped 1:1 onto a wall-clock socket deadline (rma.DeadlineWindow).
func (w *Window) SetOpDeadline(d simtime.Duration) {
	if d < 0 {
		d = 0
	}
	w.opDeadline = d
}

// rpc performs one exchange and charges its measured wall duration to
// the virtual clock — the sanctioned bridge that makes virtual-time
// budgets (RetryPolicy.Deadline, stats) meaningful on a real transport.
func (w *Window) rpc(op byte, body func(buf []byte) []byte, deadline simtime.Duration, onData func(data []byte) error) error {
	var err error
	w.ep.clock.Charge(func() { err = w.cl.RPC(op, body, deadline.Real(), onData) })
	return err
}

// inEpoch reports whether RMA calls are currently legal (mirror of
// internal/mpi).
func (w *Window) inEpoch() bool {
	return len(w.lockedTargets) > 0 || w.lockedAll || w.fenceOpen
}

// closeEpoch runs the listeners, then increments the counter — the
// contract internal/core keys its invalidation on.
func (w *Window) closeEpoch() {
	e := w.epoch
	for _, f := range w.listeners {
		f(e)
	}
	w.epoch++
}

// getRange fetches one contiguous validated range into dst.
func (w *Window) getRange(dst []byte, target, disp int) error {
	req := rangeReq{Target: int32(target), Disp: int64(disp), Size: int64(len(dst))}
	start := w.ep.clock.Now() // rpc charges measured wall time, so the clock delta IS the RTT
	err := w.rpc(OpGet, func(b []byte) []byte { return appendRange(b, req) }, w.opDeadline, func(data []byte) error {
		if len(data) != len(dst) {
			return fmt.Errorf("%w: get returned %dB (want %d)", ErrProto, len(data), len(dst))
		}
		copy(dst, data)
		return nil
	})
	if err == nil {
		w.noteRTT(target, w.ep.clock.Now()-start)
	}
	return err
}

// noteRTT folds one successful round trip into the target's fill-cost
// estimate: a 1/4-weight EWMA, heavy enough to track route changes,
// smooth enough to ignore scheduler jitter.
func (w *Window) noteRTT(target int, d simtime.Duration) {
	if target < 0 || target >= len(w.rtt) || d <= 0 {
		return
	}
	s := &w.rtt[target]
	if !s.seen {
		s.ewmaNs, s.seen = float64(d), true
		return
	}
	s.ewmaNs += (float64(d) - s.ewmaNs) / 4
}

// Fill-cost parameters of the wire backend's locality answers. A socket
// transport has no modelled topology, so the distance class is derived
// from the measured RTT bands below, and the size term assumes a
// 10 GB/s pipe (0.1 ns/B) — conservative for loopback, about right for
// a datacenter link.
const (
	rttDefaultNs   = 100e3 // unmeasured target: assume a 100 µs RTT
	rttSameNodeNs  = 30e3  // < 30 µs: loopback / unix socket → same-node
	rttOtherNodeNs = 200e3 // < 200 µs: one datacenter hop → other-node
	rttNsPerByte   = 0.1
)

// DistanceClass maps the target's measured RTT EWMA onto the
// rma.Distance* scale (rma.LocalityWindow). A socket is never as close
// as local DRAM, so the nearest class a wire target can earn is
// same-node; unmeasured targets default to other-node.
func (w *Window) DistanceClass(target int) int {
	if target < 0 || target >= len(w.rtt) || !w.rtt[target].seen {
		return rma.DistanceOtherNode
	}
	switch ns := w.rtt[target].ewmaNs; {
	case ns < rttSameNodeNs:
		return rma.DistanceSameNode
	case ns < rttOtherNodeNs:
		return rma.DistanceOtherNode
	default:
		return rma.DistanceOtherGroup
	}
}

// FillCost estimates fetching size bytes from target as the measured
// per-op RTT EWMA plus a bandwidth term (rma.LocalityWindow).
func (w *Window) FillCost(target, size int) simtime.Duration {
	base := rttDefaultNs
	if target >= 0 && target < len(w.rtt) && w.rtt[target].seen {
		base = w.rtt[target].ewmaNs
	}
	if size < 0 {
		size = 0
	}
	return simtime.Duration(base + float64(size)*rttNsPerByte)
}

// transfer validates a Get, Put or PutNotify (op is OpGet, OpPut or
// OpPutNotify; tag is read by OpPutNotify only) exactly as internal/mpi
// does — freed, epoch, rank range, short buffer, bounds, so the two
// backends are indistinguishable to error-handling tests — and then
// sends the one range as one op. A zero-byte transfer sends nothing and
// succeeds at any displacement, as on the simulated backend. The op is
// dispatched by code rather than by a callback so that buf stays visible
// to escape analysis and a caller's buffer is not forced onto the heap.
func (w *Window) transfer(op byte, buf []byte, dtype datatype.Datatype, count int, target, disp int, tag uint32) error {
	if w.freed {
		return rma.ErrFreed
	}
	if !w.inEpoch() {
		return rma.ErrNoEpoch
	}
	if target < 0 || target >= len(w.cl.regions) {
		return rma.ErrRankRange
	}
	size := datatype.TransferSize(dtype, count)
	if len(buf) < size {
		return rma.ErrShortBuf
	}
	if size == 0 {
		return nil
	}
	if !w.inRegion(target, disp, size) {
		return rma.ErrBounds
	}
	part := buf[:size]
	switch op {
	case OpGet:
		return w.getRange(part, target, disp)
	case OpPut:
		return w.putRange(part, target, disp)
	default:
		return w.putNotifyRange(part, target, disp, tag)
	}
}

// inRegion reports whether bytes [disp, disp+size) lie in target's
// region, for a target already known to be in range. Written like
// rma.Memory.Check, it cannot overflow: a range whose end passes MaxInt
// is refused here rather than sent for the server to refuse.
func (w *Window) inRegion(target, disp, size int) bool {
	return size >= 0 && disp >= 0 && disp <= int(w.cl.regions[target])-size
}

// Get reads count elements of dtype from target's region at byte
// displacement disp into dst in one round trip.
func (w *Window) Get(dst []byte, dtype datatype.Datatype, count int, target, disp int) error {
	return w.transfer(OpGet, dst, dtype, count, target, disp, 0)
}

// Put writes count elements of dtype from src into target's region at
// byte displacement disp in one round trip.
func (w *Window) Put(src []byte, dtype datatype.Datatype, count int, target, disp int) error {
	return w.transfer(OpPut, src, dtype, count, target, disp, 0)
}

func (w *Window) putRange(src []byte, target, disp int) error {
	req := putReq{Target: int32(target), Disp: int64(disp), Data: src}
	return w.rpc(OpPut, func(b []byte) []byte { return appendPut(b, req) }, w.opDeadline, nil)
}

// Accumulate combines src into target's region with op, element-wise
// atomically with respect to concurrent clients (the server applies the
// reduction under exclusive stripe locks). The supported datatypes and
// validation mirror internal/mpi.
func (w *Window) Accumulate(src []byte, dtype datatype.Datatype, count int, target, disp int, op rma.Op) error {
	if op == rma.OpReplace {
		return w.Put(src, dtype, count, target, disp)
	}
	if w.freed {
		return rma.ErrFreed
	}
	if !w.inEpoch() {
		return rma.ErrNoEpoch
	}
	if target < 0 || target >= len(w.cl.regions) {
		return rma.ErrRankRange
	}
	size := datatype.TransferSize(dtype, count)
	if len(src) < size {
		return rma.ErrShortBuf
	}
	kind := -1
	for k, dt := range accDatatypes {
		if dt == dtype {
			kind = k
		}
	}
	if kind < 0 {
		return ErrBadAccumulate
	}
	if !w.inRegion(target, disp, size) {
		return rma.ErrBounds
	}
	req := accReq{Target: int32(target), Disp: int64(disp), Op: byte(op), Kind: byte(kind), Data: src[:size]}
	return w.rpc(OpAccumulate, func(b []byte) []byte { return appendAcc(b, req) }, w.opDeadline, nil)
}

// GetBatch issues every op in one (or, above the frame payload limit, a
// few) round trips — the configuration where the miss coalescing of the
// caching layer saves real syscalls, not just simulated latency
// (rma.BatchWindow). Validation of all ops happens client-side up front,
// mirroring internal/mpi; a transport failure mid-batch is reported as a
// *rma.BatchError carrying the index of the first op of the failed
// chunk, so callers can account the delivered prefix.
func (w *Window) GetBatch(ops []rma.GetOp) error {
	if w.freed {
		return rma.ErrFreed
	}
	if !w.inEpoch() {
		return rma.ErrNoEpoch
	}
	for i := range ops {
		op := &ops[i]
		if op.Target < 0 || op.Target >= len(w.cl.regions) {
			return rma.ErrRankRange
		}
		if !w.inRegion(op.Target, op.Disp, len(op.Dst)) {
			return rma.ErrBounds
		}
	}
	// Chunk so neither the request nor the response frame exceeds the
	// payload limit. The response is the binding constraint in practice
	// (the data dwarfs the 20-byte descriptors).
	limit := w.cl.cfg.MaxPayload
	for start := 0; start < len(ops); {
		end := start
		reqBytes, respBytes := 4, 0
		for end < len(ops) {
			r := reqBytes + rangeReqSize
			p := respBytes + len(ops[end].Dst)
			if end > start && (r > limit || p > limit) {
				break
			}
			reqBytes, respBytes = r, p
			end++
		}
		if err := w.getBatchChunk(ops[start:end], respBytes); err != nil {
			return &rma.BatchError{Op: start, Err: err}
		}
		start = end
	}
	return nil
}

// getBatchChunk issues one OpGetBatch round trip and scatters the
// concatenated response into the ops' dst buffers.
func (w *Window) getBatchChunk(ops []rma.GetOp, want int) error {
	// A single-target chunk is one more RTT sample for that target;
	// mixed-target chunks are not attributed (no way to split the
	// round trip fairly).
	sameTarget := len(ops) > 0
	for i := 1; i < len(ops) && sameTarget; i++ {
		sameTarget = ops[i].Target == ops[0].Target
	}
	start := w.ep.clock.Now()
	err := w.rpc(OpGetBatch, func(b []byte) []byte { return appendBatch(b, ops) }, w.opDeadline, func(data []byte) error {
		if len(data) != want {
			return fmt.Errorf("%w: batch returned %dB (want %d)", ErrProto, len(data), want)
		}
		n := 0
		for i := range ops {
			n += copy(ops[i].Dst, data[n:n+len(ops[i].Dst)])
		}
		return nil
	})
	if err == nil && sameTarget {
		w.noteRTT(ops[0].Target, w.ep.clock.Now()-start)
	}
	return err
}

// Checksum returns the server-computed rma.ChecksumBytes of target's
// region bytes [disp, disp+size) (rma.IntegrityWindow) — the attestation
// the fill verifier compares delivered payloads against. Like the
// simulated backend it requires no open epoch: it is a control-channel
// read. The attestation round trip is itself frame-checksummed, so a
// damaged attestation is retried rather than mistaken for a corrupt
// fill.
func (w *Window) Checksum(target, disp, size int) (uint64, error) {
	if w.freed {
		return 0, rma.ErrFreed
	}
	if target < 0 || target >= len(w.cl.regions) {
		return 0, rma.ErrRankRange
	}
	if !w.inRegion(target, disp, size) {
		return 0, rma.ErrBounds
	}
	var sum uint64
	req := rangeReq{Target: int32(target), Disp: int64(disp), Size: int64(size)}
	err := w.rpc(OpChecksum, func(b []byte) []byte { return appendRange(b, req) }, w.opDeadline, func(data []byte) error {
		if len(data) != 8 {
			return fmt.Errorf("%w: checksum returned %dB", ErrProto, len(data))
		}
		sum = binary.LittleEndian.Uint64(data)
		return nil
	})
	return sum, err
}

// Lock opens a passive-target access epoch towards target with a shared
// lock; LockWithType selects the lock type. The acquisition is a real
// server round trip: cross-process mutual exclusion, not simulation.
func (w *Window) Lock(target int) error { return w.LockWithType(rma.LockShared, target) }

// LockWithType opens a passive-target epoch with an explicit lock type.
// Like the simulated backend it refuses a type other than shared or
// exclusive with rma.ErrLockType before sending anything.
func (w *Window) LockWithType(typ rma.LockType, target int) error {
	if w.freed {
		return rma.ErrFreed
	}
	if typ != rma.LockShared && typ != rma.LockExclusive {
		return rma.ErrLockType
	}
	if target < 0 || target >= len(w.cl.regions) {
		return rma.ErrRankRange
	}
	if _, held := w.lockedTargets[target]; held {
		return ErrAlreadyLocked
	}
	req := lockReq{Target: int32(target), Type: byte(typ)}
	// No op deadline on lock acquisition: blocking on a contended
	// exclusive lock is the intended semantics, not a fault.
	if err := w.rpc(OpLock, func(b []byte) []byte { return appendLock(b, req) }, 0, nil); err != nil {
		return err
	}
	if w.lockedTargets == nil {
		w.lockedTargets = make(map[int]rma.LockType)
	}
	w.lockedTargets[target] = typ
	return nil
}

// LockAll opens a passive-target epoch towards all ranks. Like the
// simulated backend it takes no per-target server locks — lock-all
// epochs are the shared-read mode the caching workloads use, and
// readers never exclude each other.
func (w *Window) LockAll() error {
	if w.freed {
		return rma.ErrFreed
	}
	w.lockedAll = true
	return nil
}

// Unlock completes operations towards target and ends the epoch,
// releasing the server-side lock.
func (w *Window) Unlock(target int) error {
	if w.freed {
		return rma.ErrFreed
	}
	typ, held := w.lockedTargets[target]
	if !held {
		return rma.ErrNoEpoch
	}
	req := lockReq{Target: int32(target), Type: byte(typ)}
	if err := w.rpc(OpUnlock, func(b []byte) []byte { return appendLock(b, req) }, w.opDeadline, nil); err != nil {
		return err
	}
	w.closeEpoch()
	delete(w.lockedTargets, target)
	return nil
}

// UnlockAll ends a lock-all epoch.
func (w *Window) UnlockAll() error {
	if w.freed {
		return rma.ErrFreed
	}
	if !w.lockedAll {
		return rma.ErrNoEpoch
	}
	w.closeEpoch()
	w.lockedAll = false
	return nil
}

// Flush completes outstanding operations towards target without
// releasing the lock; it is an epoch-closure event. Every operation of
// this transport was acknowledged before its call returned, so none is
// outstanding and the flush completes locally, as foMPI's does: it sends
// nothing and cannot fail on the transport. A dead server or connection
// is therefore reported by the next data operation (an rma.ErrTransient),
// not by the flush that follows the last one that worked.
func (w *Window) Flush(target int) error {
	if w.freed {
		return rma.ErrFreed
	}
	if !w.inEpoch() {
		return rma.ErrNoEpoch
	}
	if target < 0 || target >= len(w.cl.regions) {
		return rma.ErrRankRange
	}
	w.closeEpoch()
	return nil
}

// FlushAll completes all outstanding operations and closes the epoch;
// like Flush it is local.
func (w *Window) FlushAll() error {
	if w.freed {
		return rma.ErrFreed
	}
	if !w.inEpoch() {
		return rma.ErrNoEpoch
	}
	w.closeEpoch()
	return nil
}

// Fence is the active-target collective synchronization: it closes a
// fence-delimited epoch (if open) and rendezvouses with every other
// member of the window's world at the server before opening the next.
// The world size must have been declared (DialConfig.World or
// ServeConfig.World), else the barrier completes immediately.
func (w *Window) Fence() error {
	if w.freed {
		return rma.ErrFreed
	}
	if w.fenceOpen {
		w.closeEpoch()
	}
	// No op deadline: waiting for stragglers is the point of a barrier.
	if err := w.rpc(OpBarrier, nil, 0, nil); err != nil {
		return err
	}
	// Pump the subscribe connection after the rendezvous: every PutNotify
	// acked before any rank entered the barrier has its push in our
	// socket by now (per-connection FIFO), so post-Fence polls observe
	// every pre-Fence notification — the simulated backend's guarantee,
	// reproduced over real sockets.
	if w.nq != nil {
		w.pumpNotify()
	}
	w.fenceOpen = true
	return nil
}

// Free releases the window. When the window owns its client (the Open
// path) the connection pool closes with it.
func (w *Window) Free() error {
	if w.freed {
		return rma.ErrFreed
	}
	// The subscribe connection closes first: that wakes a NotifyWait
	// blocked in its read on another goroutine — the one call Free may
	// race with — and orders the waiter's reads of this window before the
	// writes below. w.nc is left for that waiter to drop; once freed,
	// nothing else touches it.
	if w.nc != nil {
		w.nc.c.Close()
	}
	w.freed = true
	if w.nq != nil {
		w.nq.Close()
	}
	if w.owns {
		return w.cl.Close()
	}
	return nil
}

// ErrAlreadyLocked reports a second Lock on a target this origin already
// holds locked (mirror of the simulated backend's sentinel).
var ErrAlreadyLocked = errors.New("wire: target already locked by this origin")
