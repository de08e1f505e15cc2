// Package rma defines the transport abstraction CLaMPI is layered on: the
// exact RMA contract the caching layer (internal/core), the getter shims
// (internal/getter) and the applications depend on, with the concrete
// transport behind it pluggable.
//
// The paper stacks CLaMPI on foMPI, but §III notes the design only needs
// three things from the layer below: (a) one-sided Get/Put data movement,
// (b) the epoch-closure event of the MPI-3 synchronization calls, and
// (c) window creation with info hints (see DESIGN.md §1). Window captures
// exactly that surface — nothing in the caching layer may reach past it.
// internal/mpi provides the first implementation (the simulated MPI-3
// runtime); additional backends (shared-memory segments, TCP endpoints)
// are pure additions behind these interfaces.
package rma

import (
	"errors"
	"fmt"

	"clampi/internal/datatype"
	"clampi/internal/simtime"
)

// Errors every backend returns for the corresponding misuse. They are
// defined here so layers above the transport can test for them without
// importing a concrete backend. The three canonical sentinels — ErrFreed,
// ErrOutOfRange, ErrNoEpoch — are what callers should test with
// errors.Is; the finer-grained values below them add detail while still
// matching their umbrella sentinel.
//
// Invariant (enforced by internal/analysis/sentinelerr): these values
// are matched with errors.Is, never ==, and wrapped only with %w — a
// direct comparison would miss every finer-grained sentinel wrapping
// its umbrella value.
var (
	// ErrFreed reports an operation on a freed window.
	ErrFreed = errors.New("rma: window has been freed")
	// ErrOutOfRange is the umbrella sentinel for accesses addressed
	// outside the world or the target region: both ErrRankRange and
	// ErrBounds match it under errors.Is.
	ErrOutOfRange = errors.New("rma: access out of range")
	// ErrNoEpoch reports an RMA call outside an access epoch.
	ErrNoEpoch = errors.New("rma: operation outside an access epoch")

	// ErrRankRange reports a target rank outside [0, Size). Matches
	// ErrOutOfRange.
	ErrRankRange = fmt.Errorf("%w: target rank outside the world", ErrOutOfRange)
	// ErrBounds reports an access outside the target's window region.
	// Matches ErrOutOfRange.
	ErrBounds = fmt.Errorf("%w: outside window bounds", ErrOutOfRange)
	// ErrShortBuf reports an origin buffer too small for the transfer.
	ErrShortBuf = errors.New("rma: origin buffer too small for transfer")
	// ErrDoneRequest reports a Wait on an already-completed request.
	ErrDoneRequest = errors.New("rma: request already completed")
	// ErrNoRequest reports a request-based operation that left no
	// pending operation to attach a request to.
	ErrNoRequest = errors.New("rma: no pending operation for request")
	// ErrLockType reports a lock type other than LockShared and
	// LockExclusive.
	ErrLockType = errors.New("rma: lock type is neither shared nor exclusive")
)

// Transient-failure sentinels. Unlike the misuse family above — which
// reports caller bugs that retrying can never fix — these describe
// conditions of the transport itself: a lost or timed-out operation, or
// a payload that arrived damaged. Retrying the same call is legal and
// expected to eventually succeed; the resilience layer (retry policies,
// circuit breakers) keys exclusively on errors.Is(err, ErrTransient).
//
// ErrTransient is the umbrella: ErrTimeout and ErrCorrupt wrap it, so a
// single errors.Is test catches the whole family, while callers that
// care (timeout accounting, checksum statistics) can still distinguish
// the finer-grained values — the same two-level idiom as ErrOutOfRange.
var (
	// ErrTransient is the umbrella sentinel for recoverable transport
	// failures: the operation did not take effect and may be retried.
	ErrTransient = errors.New("rma: transient transport failure")
	// ErrTimeout reports an operation that exceeded its completion
	// deadline. Matches ErrTransient.
	ErrTimeout = fmt.Errorf("%w: operation timed out", ErrTransient)
	// ErrCorrupt reports a payload that failed integrity verification
	// after delivery. Matches ErrTransient (a refetch yields clean
	// data).
	ErrCorrupt = fmt.Errorf("%w: payload failed integrity check", ErrTransient)
)

// Info carries window-creation hints (the MPI_Info of the MPI backend).
// CLaMPI reads its operational mode from here (paper §III-A).
type Info map[string]string

// LockType selects shared or exclusive passive-target locks
// (MPI_LOCK_SHARED / MPI_LOCK_EXCLUSIVE).
type LockType int

const (
	// LockShared permits concurrent lock holders.
	LockShared LockType = iota
	// LockExclusive excludes all other holders.
	LockExclusive
)

func (t LockType) String() string {
	if t == LockExclusive {
		return "exclusive"
	}
	return "shared"
}

// Op is an accumulate reduction operator.
type Op int

const (
	// OpReplace overwrites the target elements (MPI_REPLACE).
	OpReplace Op = iota
	// OpSum adds to the target elements (MPI_SUM).
	OpSum
	// OpMax keeps the element-wise maximum (MPI_MAX).
	OpMax
	// OpMin keeps the element-wise minimum (MPI_MIN).
	OpMin
)

// EpochListener observes epoch closures on a window. CLaMPI registers one
// to trigger deferred copy-in and transparent-mode invalidation.
//
// The contract every backend must honour: the listener runs on the
// origin's goroutine, inside the completion call (Flush/Unlock/Fence/
// Complete), after the clock has advanced past all pending completions
// and before the epoch counter increments.
type EpochListener func(epoch int64)

// Request is the handle of one request-based operation (Rget/Rput).
type Request interface {
	// Wait blocks (in virtual time) until the operation completes.
	// Waiting twice returns ErrDoneRequest.
	Wait() error
	// Test reports whether the operation has completed by the origin's
	// current virtual time, never advancing the clock.
	Test() bool
}

// Endpoint is a rank's attachment to the transport: its identity in the
// world and the virtual clock its operations are accounted on. Backends
// typically expose richer per-rank handles (collectives, topology); the
// caching layer needs only this.
type Endpoint interface {
	// ID returns the rank id in [0, Size).
	ID() int
	// Size returns the number of ranks in the world.
	Size() int
	// Clock returns the rank's virtual clock.
	Clock() *simtime.Clock
}

// Window is one rank's handle on an RMA window: per-rank exposed byte
// regions, one-sided data movement, and the epoch structure CLaMPI keys
// on. All methods must be called from the owning rank's goroutine
// (origin-side state is private per MPI semantics); the backend is
// responsible for making cross-rank data movement safe under whatever
// execution model it runs.
type Window interface {
	// Endpoint returns the owning rank's transport endpoint.
	Endpoint() Endpoint
	// Info returns the window's creation hints.
	Info() Info
	// Local returns this rank's exposed region.
	Local() []byte
	// RegionSize returns the size of target's exposed region.
	RegionSize(target int) (int, error)
	// Epoch returns the number of epochs closed by this origin on this
	// window since creation.
	Epoch() int64
	// AddEpochListener registers f to run at every epoch closure by
	// this origin on this window.
	AddEpochListener(f EpochListener)

	// Get reads count elements of dtype from target's region at byte
	// displacement disp into dst (packed). dst may be consumed only
	// after the next completion call on the window — the weak-
	// consistency contract of paper §III, enforced at compile time by
	// internal/analysis/epochcheck.
	Get(dst []byte, dtype datatype.Datatype, count int, target, disp int) error
	// Put writes count elements of dtype from src (packed) into
	// target's region at byte displacement disp.
	Put(src []byte, dtype datatype.Datatype, count int, target, disp int) error
	// Rget is Get returning a completable request.
	Rget(dst []byte, dtype datatype.Datatype, count int, target, disp int) (Request, error)
	// Rput is Put returning a completable request.
	Rput(src []byte, dtype datatype.Datatype, count int, target, disp int) (Request, error)
	// Accumulate combines src into target's region with op.
	Accumulate(src []byte, dtype datatype.Datatype, count int, target, disp int, op Op) error

	// Lock opens a passive-target access epoch towards target with a
	// shared lock; LockWithType selects the lock type explicitly.
	Lock(target int) error
	LockWithType(typ LockType, target int) error
	// LockAll opens a passive-target epoch towards all ranks.
	LockAll() error
	// Unlock completes operations towards target and ends the epoch.
	Unlock(target int) error
	// UnlockAll ends a lock-all epoch.
	UnlockAll() error
	// Flush completes outstanding operations towards target without
	// releasing the lock; it is an epoch-closure event.
	Flush(target int) error
	// FlushAll completes all outstanding operations and closes the
	// epoch.
	FlushAll() error
	// Fence is the active-target collective synchronization.
	Fence() error
	// Post/Start/Complete/Wait implement generalized active-target
	// synchronization; Complete is an epoch-closure event.
	Post(origins []int) error
	Start(targets []int) error
	Complete() error
	Wait() error
	// Free collectively releases the window.
	Free() error
}

// GetOp is one contiguous byte-range get of a batched issue: len(Dst)
// bytes from Target's region at byte displacement Disp. The Dst buffers
// follow the same epoch contract as Window.Get — undefined until the
// next completion call (enforced by internal/analysis/epochcheck).
type GetOp struct {
	Dst    []byte
	Target int
	Disp   int
}

// DeadlineWindow is the optional deadline extension of Window: backends
// whose operations occupy real wall time (socket transports) implement
// it so callers can bound one operation's duration. The duration is
// virtual (simtime) like every other timing value above the transport;
// the backend maps it onto its own wall clock (1 virtual ns = 1 wall ns
// at the default clock scale) — the one sanctioned place where the
// RetryPolicy.Deadline budget becomes a socket deadline. Operations that
// exceed it fail with ErrTimeout, which the retry policies already
// classify as transient.
//
// Layers probe for it with a type assertion, exactly like BatchWindow:
// on backends whose ops consume no wall time (the simulated runtime) the
// interface is absent and the virtual-time deadline check in the retry
// loop remains the only enforcement.
type DeadlineWindow interface {
	Window
	// SetOpDeadline bounds every subsequent operation on this window to
	// d of (virtual) time; zero or negative clears the bound. It applies
	// per operation, not cumulatively.
	SetOpDeadline(d simtime.Duration)
}

// BatchWindow is the optional vectorized extension of Window: backends
// that can validate and dispatch many contiguous gets in one call
// implement it, and the caching layer issues its coalesced miss ranges
// through it (one network message per op — callers coalesce before
// issuing). Layers above probe for it with a type assertion and fall
// back to per-op Window.Get when absent, so implementing it is purely a
// host-side-overhead optimization.
type BatchWindow interface {
	Window
	// GetBatch issues every op in ops. Each op is validated and charged
	// exactly like an individual Get(op.Dst, Byte, len(op.Dst), op.Target,
	// op.Disp); on the first failing op the error is returned and the
	// remaining ops are not issued. Backends that can identify the
	// failing op wrap the cause in a *BatchError so callers can resume
	// after the already-delivered prefix. ops belongs to the caller: an
	// implementation fills the Dst buffers but neither modifies the
	// slice's elements nor keeps the slice after returning (internal/mpi,
	// internal/wire and internal/fault all comply), so callers pass their
	// own descriptor slice without a defensive copy.
	GetBatch(ops []GetOp) error
}
