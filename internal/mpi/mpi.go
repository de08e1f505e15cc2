// Package mpi implements the subset of the MPI-3 standard that CLaMPI and
// the paper's applications depend on, as an in-process simulated runtime.
//
// The paper layers CLaMPI on top of foMPI, a Cray-optimized MPI-3 RMA
// implementation. No MPI implementation (let alone RDMA hardware) is
// available to this reproduction, so this package substitutes the runtime:
//
//   - A World is the equivalent of MPI_COMM_WORLD; its ranks are
//     goroutines launched by Run.
//   - Windows expose per-rank byte regions (MPI_Win_create /
//     MPI_Win_allocate); Get and Put transfer data between regions and
//     private buffers.
//   - Passive-target synchronization (Lock/Unlock/LockAll/UnlockAll/
//     Flush) and active-target Fence provide the epoch structure CLaMPI
//     keys on: every completion call closes an access epoch and notifies
//     registered epoch listeners.
//
// Time is virtual (see internal/simtime): issuing an operation charges the
// modelled CPU overhead on the origin's clock, and the operation's
// completion time is the issue time plus the modelled network latency
// (internal/netsim). Completion calls advance the origin clock to the
// latest pending completion, which reproduces the overlap behaviour of a
// real RDMA network: many gets issued back-to-back pipeline, and the
// initiator only stalls at the flush.
//
// Data movement is physical: Get and Put really copy bytes between
// buffers, so applications compute correct results. MPI-3's epoch rules
// (no conflicting accesses within an epoch) are what make the immediate
// copy indistinguishable from a deferred one.
//
// The package implements the transport contract of internal/rma: *Win
// satisfies rma.Window and *Rank satisfies rma.Endpoint, making this
// runtime the first of several pluggable backends under the caching
// layer.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"clampi/internal/datatype"
	"clampi/internal/netsim"
	"clampi/internal/notify"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// Errors returned by window operations. The data-path errors are the
// backend-independent values of internal/rma: the canonical sentinels
// (ErrFreed, ErrOutOfRange, ErrNoEpoch) plus the finer-grained names
// layered on them.
var (
	ErrFreed      = rma.ErrFreed
	ErrOutOfRange = rma.ErrOutOfRange
	ErrNoEpoch    = rma.ErrNoEpoch
	ErrRankRange  = rma.ErrRankRange
	ErrBounds     = rma.ErrBounds
	ErrShortBuf   = rma.ErrShortBuf
	ErrWorldSize  = errors.New("mpi: world size must be positive")
	ErrNilProgram = errors.New("mpi: nil rank program")
)

// ExecMode is the type of FidelityMeasured and Throughput, and of
// stencil.Run's ignored second parameter. It goes with the constants; it
// carries no Deprecated marker of its own only because stencil.Run names
// it, a use the CI's staticcheck (SA1019) would report.
type ExecMode int

// Deprecated: there is one execution engine (see Run), so both values
// run it and nothing in this module reads them. The benchmark harness
// (bench/) is their only user.
const (
	FidelityMeasured ExecMode = iota
	Throughput
)

// Config controls the simulated machine a World runs on.
type Config struct {
	// Model is the network latency model; nil selects
	// netsim.DefaultModel.
	Model *netsim.Model
	// RanksPerNode controls the rank→node mapping used to derive
	// distance classes; <=0 means one rank per node (the paper's
	// default placement).
	RanksPerNode int
	// NodesPerGroup controls the node→Dragonfly-group mapping; <=0
	// selects the Piz Daint group size.
	NodesPerGroup int
}

// World is the communicator containing all ranks of a run.
type World struct {
	size int
	cfg  Config

	mu sync.Mutex
	// colls are the two rendezvous in flight at most: a rank can reach
	// collective n+1 while a peer has yet to leave n, but n+2 completes
	// n+1 first, which every rank entered only after leaving n. Collective
	// n uses colls[n&1]; collDone wakes its waiters.
	colls    [2]collSlot
	collDone sync.Cond // on mu
	wins     int       // window id counter

	ranks []*Rank
}

// collSlot is one in-flight collective rendezvous, reset by its first
// arrival and read by its participants until the slot's next use.
type collSlot struct {
	arrived int
	done    int   // rendezvous completed on this slot
	data    []any // nil unless a rank contributed a value
	clock   simtime.Duration
}

// Rank is the per-process handle passed to each rank's program. All
// methods must be called only from the owning goroutine.
type Rank struct {
	world *World
	id    int
	clock *simtime.Clock
	colls int // per-rank collective sequence number
}

// Run executes program on size simulated ranks, one goroutine each, and
// blocks until all return. It is the moral equivalent of mpirun. The
// ranks run concurrently, like the processes of a real job: collectives
// and passive-target locks block for real, and cross-rank data movement
// is ordered by per-(target, region-stripe) read-write locks (see
// rma.Memory). Clocks advance by modelled costs only, so the
// results and virtual times of a program that keeps the MPI epoch rules
// do not depend on the schedule (DESIGN.md §7.2 names the exceptions).
func Run(size int, cfg Config, program func(*Rank) error) error {
	if size <= 0 {
		return ErrWorldSize
	}
	if program == nil {
		return ErrNilProgram
	}
	if cfg.Model == nil {
		cfg.Model = netsim.DefaultModel()
	}
	w := &World{
		size:  size,
		cfg:   cfg,
		ranks: make([]*Rank, size),
	}
	w.collDone.L = &w.mu
	for i := 0; i < size; i++ {
		w.ranks[i] = &Rank{world: w, id: i, clock: simtime.NewClock()}
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for i := 0; i < size; i++ {
		go func(r *Rank) {
			defer wg.Done()
			errs[r.id] = program(r)
		}(w.ranks[i])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ID returns the rank's id in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the world.
func (r *Rank) Size() int { return r.world.size }

// Clock returns the rank's virtual clock.
func (r *Rank) Clock() *simtime.Clock { return r.clock }

// Model returns the network model of the world the rank runs in.
func (r *Rank) Model() *netsim.Model { return r.world.cfg.Model }

// Distance returns the distance class between this rank and target.
func (r *Rank) Distance(target int) netsim.Distance {
	return netsim.MapDistance(r.id, target, r.world.cfg.RanksPerNode, r.world.cfg.NodesPerGroup)
}

// collective performs a rendezvous of all ranks, gathering one value per
// rank and aligning clocks to the slowest participant plus cost. All ranks
// must call collectives in the same order (the usual SPMD contract). The
// result is nil when no rank contributed a value, so a Barrier or Fence
// allocates nothing; otherwise it is a fresh slice shared by all ranks.
func (r *Rank) collective(contrib any, cost simtime.Duration) []any {
	w := r.world
	slot := &w.colls[r.colls&1]
	r.colls++

	w.mu.Lock()
	if slot.arrived == 0 {
		slot.data, slot.clock = nil, 0
	}
	if contrib != nil {
		if slot.data == nil {
			slot.data = make([]any, w.size)
		}
		slot.data[r.id] = contrib
	}
	if r.clock.Now() > slot.clock {
		slot.clock = r.clock.Now()
	}
	slot.arrived++
	last := slot.arrived == w.size
	if last {
		slot.arrived = 0
		slot.done++
		w.collDone.Broadcast()
	} else {
		for done := slot.done; slot.done == done; {
			w.collDone.Wait()
		}
	}
	data, clock := slot.data, slot.clock
	w.mu.Unlock()
	r.clock.AdvanceTo(clock + cost)
	return data
}

// barrierCost models a dissemination barrier: ceil(log2 P) network rounds.
func (r *Rank) barrierCost() simtime.Duration {
	p := r.world.size
	rounds := 0
	for n := 1; n < p; n <<= 1 {
		rounds++
	}
	base := r.world.cfg.Model.GetLatency(0, netsim.OtherNode)
	return simtime.Duration(rounds) * base
}

// Barrier synchronizes all ranks (MPI_Barrier) and aligns virtual clocks.
func (r *Rank) Barrier() {
	r.collective(nil, r.barrierCost())
}

// Allgather gathers one value from every rank into a slice indexed by
// rank id (MPI_Allgather for a single element of any Go type).
func (r *Rank) Allgather(v any) []any {
	if out := r.collective(v, r.barrierCost()); out != nil {
		return out
	}
	return make([]any, r.world.size) // every rank contributed nil
}

// AllreduceSum returns the sum of the per-rank contributions.
func (r *Rank) AllreduceSum(v float64) float64 {
	raw := r.Allgather(v)
	s := 0.0
	for _, x := range raw {
		s += x.(float64)
	}
	return s
}

// Bcast distributes root's value to all ranks.
func (r *Rank) Bcast(v any, root int) any {
	raw := r.Allgather(v)
	if root < 0 || root >= len(raw) {
		root = 0
	}
	return raw[root]
}

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

// Info carries window-creation hints (MPI_Info). CLaMPI reads its
// operational mode from here (paper §III-A). It is the backend-neutral
// rma.Info under its historical name.
type Info = rma.Info

// pendingOp is one issued-but-not-completed RMA operation.
type pendingOp struct {
	target     int
	completion simtime.Duration
}

// winShared is the state shared by all ranks attached to one window.
type winShared struct {
	id   int
	mem  *rma.Memory // every rank's region and the stripes ordering access to it
	info Info

	lockOnce sync.Once
	locks    []*targetLock

	// notifyQ holds one bounded notification queue per subscribed rank
	// (nil for unsubscribed ranks; the slice itself is nil until the
	// first NotifyEnable). notifyStg stages broadcast descriptors per
	// destination until a collective orders them (see notify.go:
	// settlement gives delivery a canonical order, making fault-replay
	// runs reproducible); notifyStgN mirrors each destination's staged
	// count so the per-access depth probe stays one atomic load.
	// notifyCond (on notifyMu) wakes NotifyWait blocked on a push.
	// All guarded by notifyMu; the queues themselves are internally
	// synchronized.
	notifyMu   sync.Mutex
	notifyCond *sync.Cond
	notifyQ    []*notify.Queue
	notifyStg  [][]stagedNotify
	notifyStgN []atomic.Int64
	notifyScr  []stagedNotify // settle scratch, reused under notifyMu
}

// EpochListener observes epoch closures on a window. CLaMPI registers one
// to trigger deferred copy-in and transparent-mode invalidation.
//
// The listener runs on the origin rank's goroutine, inside the completion
// call, after the clock has advanced past all pending completions and
// before the epoch counter increments. It is the backend-neutral
// rma.EpochListener under its historical name.
type EpochListener = rma.EpochListener

// Win is a rank's handle on a window (origin-side state is private to the
// rank, per MPI semantics).
type Win struct {
	rank   *Rank
	shared *winShared

	epoch         int64
	pending       []pendingOp
	lockedTargets map[int]LockType
	lockedAll     bool
	fenceOpen     bool
	lastInj       simtime.Duration // last network injection (LogGP gap pacing)
	notifyQ       *notify.Queue    // this rank's subscription, nil until NotifyEnable
	notifyStgN    *atomic.Int64    // this rank's staged-descriptor count, nil until NotifyEnable
	freed         bool

	listeners []EpochListener
}

// WinCreate collectively creates a window exposing each rank's region
// (MPI_Win_create). region may be nil for ranks exposing no memory.
func (r *Rank) WinCreate(region []byte, info Info) *Win {
	w := r.world
	w.mu.Lock()
	id := w.wins // same value observed by all ranks via the collective below
	w.mu.Unlock()

	gathered := r.collective(region, r.barrierCost())
	// Rank 0 materializes the single shared window state and broadcasts
	// it, so cross-rank state (memory, locks, notification queues) lives
	// in exactly one place.
	var shared *winShared
	if r.id == 0 {
		regions := make([][]byte, len(gathered))
		for i, g := range gathered {
			if g != nil {
				regions[i] = g.([]byte)
			}
		}
		shared = &winShared{id: id, mem: rma.NewMemory(regions), info: info}
		w.mu.Lock()
		w.wins++
		w.mu.Unlock()
	}
	shared = r.Bcast(shared, 0).(*winShared)
	r.Barrier()
	return &Win{rank: r, shared: shared}
}

// WinAllocate collectively creates a window, allocating size bytes on each
// rank (MPI_Win_allocate). It returns the window and the local region.
func (r *Rank) WinAllocate(size int, info Info) (*Win, []byte) {
	if size < 0 {
		size = 0
	}
	region := make([]byte, size)
	return r.WinCreate(region, info), region
}

// Info returns the window's creation info.
func (w *Win) Info() Info { return w.shared.info }

// Rank returns the owning rank handle.
func (w *Win) Rank() *Rank { return w.rank }

// Endpoint returns the owning rank as a transport endpoint (rma.Window).
func (w *Win) Endpoint() rma.Endpoint { return w.rank }

// DistanceClass reports the placement distance of target on the
// rma.Distance* scale (rma.LocalityWindow). netsim.Distance ordinals
// coincide with the rma scale by construction.
func (w *Win) DistanceClass(target int) int {
	return int(w.rank.Distance(target))
}

// FillCost returns the modelled LogGP latency of a size-byte get from
// target under the world's network model (rma.LocalityWindow).
func (w *Win) FillCost(target, size int) simtime.Duration {
	return w.rank.Model().GetLatency(size, w.rank.Distance(target))
}

// Compile-time checks: this runtime implements the transport contract.
var (
	_ rma.Window          = (*Win)(nil)
	_ rma.BatchWindow     = (*Win)(nil)
	_ rma.IntegrityWindow = (*Win)(nil)
	_ rma.LocalityWindow  = (*Win)(nil)
	_ rma.Endpoint        = (*Rank)(nil)
)

// Epoch returns the number of epochs closed on this window by this origin
// since creation (the w.eph counter of the paper's notation).
func (w *Win) Epoch() int64 { return w.epoch }

// Local returns this rank's exposed region.
func (w *Win) Local() []byte { return w.shared.mem.Local(w.rank.id) }

// RegionSize returns the size of target's exposed region.
func (w *Win) RegionSize(target int) (int, error) {
	if target < 0 || target >= w.shared.mem.Targets() {
		return 0, ErrRankRange
	}
	return w.shared.mem.Size(target), nil
}

// AddEpochListener registers f to run at every epoch closure by this
// origin on this window.
func (w *Win) AddEpochListener(f EpochListener) {
	if f != nil {
		w.listeners = append(w.listeners, f)
	}
}

// Lock opens a passive-target access epoch towards target with a shared
// lock (MPI_Win_lock with MPI_LOCK_SHARED) — the mode the paper's
// workloads use. LockWithType selects exclusive locks.
func (w *Win) Lock(target int) error {
	return w.LockWithType(LockShared, target)
}

// LockAll opens a passive-target epoch towards all ranks
// (MPI_Win_lock_all).
func (w *Win) LockAll() error {
	if w.freed {
		return ErrFreed
	}
	w.lockedAll = true
	w.rank.clock.Advance(w.rank.Model().GetLatency(8, netsim.OtherNode))
	return nil
}

// inEpoch reports whether RMA calls are currently legal.
func (w *Win) inEpoch() bool {
	return len(w.lockedTargets) > 0 || w.lockedAll || w.fenceOpen
}

// Get reads count elements of dtype from target's region at byte
// displacement disp into dst (MPI_Get): TransferSize(dtype, count) bytes
// of one contiguous range. A zero-byte get succeeds at any displacement
// and reads nothing, but is issued and charged like any other.
//
// The call is non-blocking in the MPI-3 sense: dst's contents may be
// consumed only after the next Flush/Unlock on the window. The runtime
// copies the bytes immediately — valid because MPI forbids conflicting
// accesses within an epoch — but the virtual clock only accounts for the
// issue overhead here; the latency is paid at the completion call.
func (w *Win) Get(dst []byte, dtype datatype.Datatype, count int, target, disp int) error {
	if w.freed {
		return ErrFreed
	}
	if !w.inEpoch() {
		return ErrNoEpoch
	}
	if target < 0 || target >= w.shared.mem.Targets() {
		return ErrRankRange
	}
	size := datatype.TransferSize(dtype, count)
	if len(dst) < size {
		return ErrShortBuf
	}
	if size > 0 {
		if err := w.shared.mem.Check(target, disp, size); err != nil {
			return err
		}
		w.shared.mem.Read(dst[:0], target, disp, size)
	}
	w.enqueueOp(target, size)
	return nil
}

// GetBatch issues several contiguous byte-range gets in one call — the
// vectorized form of Get for datatype.Byte transfers (rma.BatchWindow).
// Each op is validated and charged exactly like an individual Get (one
// LogGP issue overhead per op, i.e. per network message: callers
// coalesce adjacent ranges before issuing); the per-call epoch and
// window checks are paid once for the whole batch. Every op is validated
// before any is read or charged, so a refused batch delivers nothing and
// leaves the clock where it was.
func (w *Win) GetBatch(ops []rma.GetOp) error {
	if w.freed {
		return ErrFreed
	}
	if !w.inEpoch() {
		return ErrNoEpoch
	}
	for i := range ops {
		op := &ops[i]
		if op.Target < 0 || op.Target >= w.shared.mem.Targets() {
			return ErrRankRange
		}
		if len(op.Dst) > 0 {
			if err := w.shared.mem.Check(op.Target, op.Disp, len(op.Dst)); err != nil {
				return err
			}
		}
	}
	for i := range ops {
		op := &ops[i]
		if len(op.Dst) > 0 {
			w.shared.mem.Read(op.Dst[:0], op.Target, op.Disp, len(op.Dst))
		}
		w.enqueueOp(op.Target, len(op.Dst))
	}
	return nil
}

// Checksum returns the ground-truth rma.ChecksumBytes of target's region
// bytes [disp, disp+size) (rma.IntegrityWindow). It reads the
// authoritative target-side bytes — under the covering stripe read
// locks — so a fill verifier comparing against it detects any
// origin-side payload damage. The attestation is a control-channel read:
// it charges no network latency and requires no open epoch.
func (w *Win) Checksum(target, disp, size int) (uint64, error) {
	if w.freed {
		return 0, ErrFreed
	}
	if err := w.shared.mem.Check(target, disp, size); err != nil {
		return 0, err
	}
	return w.shared.mem.Checksum(target, disp, size), nil
}

// Put writes count elements of dtype from src into target's region at
// byte displacement disp (MPI_Put). Zero-byte puts follow Get's rule.
func (w *Win) Put(src []byte, dtype datatype.Datatype, count int, target, disp int) error {
	if w.freed {
		return ErrFreed
	}
	if !w.inEpoch() {
		return ErrNoEpoch
	}
	if target < 0 || target >= w.shared.mem.Targets() {
		return ErrRankRange
	}
	size := datatype.TransferSize(dtype, count)
	if len(src) < size {
		return ErrShortBuf
	}
	if size > 0 {
		if err := w.shared.mem.Check(target, disp, size); err != nil {
			return err
		}
		w.shared.mem.Write(src[:size], target, disp)
	}
	w.enqueueOp(target, size)
	return nil
}

// enqueueOp charges the issue overhead of one RMA operation and records
// its completion time: injection (paced by LogGP's gap g when the model
// sets one) plus the wire latency. Gets and puts of equal size cost the
// same on the modelled network.
func (w *Win) enqueueOp(target, size int) {
	dist := w.rank.Distance(target)
	model := w.rank.Model()
	w.rank.clock.Busy(model.IssueOverhead(dist))
	inj := w.rank.clock.Now()
	if g := model.Gap(dist); g > 0 {
		if t := w.lastInj + g; t > inj {
			inj = t
		}
	}
	w.lastInj = inj
	w.pending = append(w.pending, pendingOp{
		target:     target,
		completion: inj + model.GetLatency(size, dist) - model.IssueOverhead(dist),
	})
}

// completePending advances the clock past every pending completion that
// matches target (-1 = all targets) and drops them from the pending list.
func (w *Win) completePending(target int) {
	kept := w.pending[:0]
	for _, op := range w.pending {
		if target < 0 || op.target == target {
			w.rank.clock.AdvanceTo(op.completion)
		} else {
			kept = append(kept, op)
		}
	}
	w.pending = kept
}

// closeEpoch fires listeners and bumps the epoch counter.
func (w *Win) closeEpoch() {
	e := w.epoch
	for _, f := range w.listeners {
		f(e)
	}
	w.epoch++
}

// Flush completes all outstanding operations towards target without
// closing the lock (MPI_Win_flush). Per the paper (Listing 1), a flush is
// an epoch-closure event for CLaMPI.
func (w *Win) Flush(target int) error {
	if w.freed {
		return ErrFreed
	}
	if !w.inEpoch() {
		return ErrNoEpoch
	}
	if target < 0 || target >= w.shared.mem.Targets() {
		return ErrRankRange
	}
	w.completePending(target)
	w.closeEpoch()
	return nil
}

// FlushAll completes all outstanding operations towards every target
// (MPI_Win_flush_all) and closes the epoch.
func (w *Win) FlushAll() error {
	if w.freed {
		return ErrFreed
	}
	if !w.inEpoch() {
		return ErrNoEpoch
	}
	w.completePending(-1)
	w.closeEpoch()
	return nil
}

// Unlock completes outstanding operations towards target and ends the
// passive epoch (MPI_Win_unlock).
func (w *Win) Unlock(target int) error {
	if w.freed {
		return ErrFreed
	}
	typ, held := w.lockedTargets[target]
	if !held {
		return ErrNoEpoch
	}
	w.completePending(target)
	w.closeEpoch()
	delete(w.lockedTargets, target)
	w.release(target, typ)
	return nil
}

// UnlockAll ends a lock-all epoch (MPI_Win_unlock_all).
func (w *Win) UnlockAll() error {
	if w.freed {
		return ErrFreed
	}
	if !w.lockedAll {
		return ErrNoEpoch
	}
	w.completePending(-1)
	w.closeEpoch()
	w.lockedAll = false
	return nil
}

// Fence is the active-target synchronization call (MPI_Win_fence): a
// collective that completes all outstanding operations, closes the epoch,
// and opens the next one. Between fences, RMA calls are legal.
func (w *Win) Fence() error {
	if w.freed {
		return ErrFreed
	}
	w.completePending(-1)
	if w.epochOpenedByFence() {
		w.closeEpoch()
	}
	w.rank.Barrier()
	w.fenceOpen = true
	return nil
}

// fenceOpen tracks whether a fence-delimited epoch is active.
func (w *Win) epochOpenedByFence() bool { return w.fenceOpen }

// Free releases the window (MPI_Win_free). It is collective.
func (w *Win) Free() error {
	if w.freed {
		return ErrFreed
	}
	w.rank.Barrier()
	w.freed = true
	if w.notifyQ != nil {
		// Wake any NotifyWait blocked on this rank's subscription.
		w.notifyQ.Close()
	}
	return nil
}

// PendingOps returns the number of incomplete operations (for tests and
// the overlap study).
func (w *Win) PendingOps() int { return len(w.pending) }

// String identifies the window for diagnostics.
func (w *Win) String() string {
	return fmt.Sprintf("win%d@rank%d", w.shared.id, w.rank.id)
}
