package core

// Observability hooks (DESIGN.md §8).
//
// The caching layer emits structured events at the four places the
// paper's evaluation instruments: every classified access (Figs. 7, 13,
// 16, 18), every eviction (Fig. 11), every adaptive adjustment (Fig. 9)
// and every epoch closure. An Observer installed through Params.Observer
// receives them inline on the owning rank's goroutine; with no observer
// installed the cost on the get path is a single nil check.
//
// Observers must be cheap and must not call back into the Cache: they
// run inside Get and inside the epoch-closure listener, where the cache's
// invariants are mid-update. Several concurrent ranks may share one
// Observer, so implementations must be safe for concurrent use
// (internal/obsv.Collector is).
//
// Invariant (enforced by internal/analysis/observerlock): Observer
// methods are never invoked while a shard or window mutex is held —
// observers run arbitrary user code synchronously, and notifying under
// a lock would turn every metric update into a critical-section
// extension (latency hazard) or a re-entrancy deadlock. The unobserved
// hot path stays a single nil check.

import "clampi/internal/simtime"

// Observer receives the caching layer's structured events. All methods
// are called synchronously on the rank's goroutine that triggered the
// event.
type Observer interface {
	// OnAccess fires after each get_c has been classified, with the
	// access's full cost breakdown.
	OnAccess(AccessEvent)
	// OnEviction fires for every entry removed to make room (capacity
	// or conflict evictions; invalidations are reported per epoch).
	OnEviction(EvictionEvent)
	// OnAdjustment fires when the adaptive tuner changes |I_w| or
	// |S_w| (§III-E1).
	OnAdjustment(AdjustmentEvent)
	// OnEpochClose fires at every epoch closure on the window, after
	// PENDING entries have been completed and transparent-mode
	// invalidation applied.
	OnEpochClose(EpochEvent)
}

// AccessEvent describes one classified get_c.
type AccessEvent struct {
	Rank  int              // origin rank id
	Epoch int64            // epoch the get was issued in
	Time  simtime.Duration // origin's virtual time after classification

	Type    AccessType
	Partial bool // partial hit (payload shorter than the request)
	Issued  bool // a remote get was issued
	Target  int  // target rank
	Disp    int  // byte displacement in the target region
	Size    int  // transfer size in bytes

	// Phase cost breakdown (virtual time), as in Access.
	Lookup simtime.Duration
	Evict  simtime.Duration
	Copy   simtime.Duration
	Mgmt   simtime.Duration
}

// Total returns the summed cache-management cost of the access.
func (e AccessEvent) Total() simtime.Duration {
	return e.Lookup + e.Evict + e.Copy + e.Mgmt
}

// EvictionEvent describes one evicted entry.
type EvictionEvent struct {
	Rank  int
	Epoch int64
	Time  simtime.Duration

	Target   int  // key of the evicted entry
	Disp     int  //
	Bytes    int  // payload size released
	Conflict bool // true for conflict (index) evictions, false for capacity
}

// AdjustmentEvent describes one adaptive parameter change. Either the
// index size or the storage size differs from its Prev value, never both
// (the tuner applies at most one adjustment per evaluation).
type AdjustmentEvent struct {
	Rank  int
	Epoch int64
	Time  simtime.Duration

	PrevIndexSlots   int
	IndexSlots       int
	PrevStorageBytes int
	StorageBytes     int
}

// EpochEvent describes one epoch closure seen by the cache.
type EpochEvent struct {
	Rank  int
	Epoch int64 // the epoch that closed
	Time  simtime.Duration

	Completed   int  // PENDING entries that became CACHED
	CopiedBytes int  // user→cache bytes copied at this closure
	Invalidated bool // the closure invalidated the cache (Transparent mode)
}
