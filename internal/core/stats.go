package core

import (
	"fmt"

	"clampi/internal/simtime"
)

// AccessType classifies the outcome of a get_c (paper §III-B).
type AccessType int

const (
	// AccessHit is a hitting access: the lookup found a CACHED or
	// PENDING entry (full or partial).
	AccessHit AccessType = iota
	// AccessDirect stored the new entry without any eviction.
	AccessDirect
	// AccessConflicting required evicting an entry from one of the new
	// key's Cuckoo candidate slots (index conflict).
	AccessConflicting
	// AccessCapacity required evicting an entry to make room in S_w,
	// after which the allocation succeeded.
	AccessCapacity
	// AccessFailing could not cache the data: the single permitted
	// eviction did not free enough space (weak caching, §III-D2).
	AccessFailing
)

// String returns the paper's access-type name.
func (a AccessType) String() string {
	switch a {
	case AccessHit:
		return "hitting"
	case AccessDirect:
		return "direct"
	case AccessConflicting:
		return "conflicting"
	case AccessCapacity:
		return "capacity"
	case AccessFailing:
		return "failing"
	default:
		return fmt.Sprintf("access(%d)", int(a))
	}
}

// Stats aggregates the caching-layer counters reported throughout the
// paper's evaluation (Figs. 11, 13, 16, 18).
type Stats struct {
	Gets int64 // total get_c processed

	Hits        int64 // hitting accesses (CACHED or PENDING lookups)
	FullHits    int64
	PartialHits int64
	PendingHits int64 // subset of Hits that matched a PENDING entry

	Direct      int64
	Conflicting int64
	Capacity    int64
	Failing     int64

	Evictions        int64 // victim evictions (capacity + conflict)
	VisitedSlots     int64 // index slots visited by capacity/failed eviction scans
	NonEmptyVisited  int64 // of those, slots holding an entry
	EvictionScans    int64 // number of capacity/failed eviction scans
	Invalidations    int64 // cache invalidations (any cause)
	Adjustments      int64 // adaptive parameter changes
	BytesFromCache   int64 // payload served locally
	BytesFromNetwork int64 // payload fetched remotely

	// Batched-get counters (GetBatch, DESIGN.md §10).
	BatchOps      int64 // gets submitted through GetBatch (subset of Gets)
	BatchMisses   int64 // batched contiguous misses that entered coalescing
	BatchMessages int64 // merged remote messages issued for those misses

	// Resilience counters (DESIGN.md §11).
	Retries      int64 // remote-get attempts re-issued after a transient failure
	Timeouts     int64 // transient failures that were timeouts (rma.ErrTimeout)
	BreakerOpens int64 // circuit-breaker transitions to open (incl. reopens)
	CorruptFills int64 // fills rejected by integrity verification

	// Cost-aware counters (DESIGN.md §15).
	CheapSkips int64 // admissions bypassed: near target, fill below threshold

	// Notifiable-RMA counters (DESIGN.md §16). A write or descriptor counts
	// once, however many entries it met: as a patch if it patched at least
	// one cached entry in place — even if it also dropped others that
	// overlap its span — and otherwise, for descriptors, as an invalidation.
	Notifications       int64 // notification descriptors drained
	NotifyInvalidations int64 // descriptors applied to their span that patched nothing
	NotifyPatches       int64 // descriptors that patched at least one cached entry
	WriteHits           int64 // writes that patched at least one cached entry
	WriteBacks          int64 // dirty spans staged by write-back
	DirtyFlushes        int64 // coalesced dirty runs flushed to the network

	// Time attribution (virtual, measured portions).
	LookupTime simtime.Duration
	EvictTime  simtime.Duration
	CopyTime   simtime.Duration
	MgmtTime   simtime.Duration // allocation + index insertion
}

// HitRate returns Hits/Gets (0 when no gets).
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Rate returns counter/Gets for the given access counter.
func (s Stats) Rate(a AccessType) float64 {
	if s.Gets == 0 {
		return 0
	}
	var c int64
	switch a {
	case AccessHit:
		c = s.Hits
	case AccessDirect:
		c = s.Direct
	case AccessConflicting:
		c = s.Conflicting
	case AccessCapacity:
		c = s.Capacity
	case AccessFailing:
		c = s.Failing
	}
	return float64(c) / float64(s.Gets)
}

// BatchCoalesceRatio returns BatchMisses/BatchMessages — the mean number
// of constituent misses amortized per merged remote message (1.0 means
// coalescing never merged anything; 0 when no batched miss occurred).
func (s Stats) BatchCoalesceRatio() float64 {
	if s.BatchMessages == 0 {
		return 0
	}
	return float64(s.BatchMisses) / float64(s.BatchMessages)
}

// AvgVisitedPerEviction returns the mean number of index slots visited per
// capacity/failed eviction scan (Fig. 11, top).
func (s Stats) AvgVisitedPerEviction() float64 {
	if s.EvictionScans == 0 {
		return 0
	}
	return float64(s.VisitedSlots) / float64(s.EvictionScans)
}

// AvgNonEmptyVisited returns the mean non-empty slots visited per scan
// (Fig. 11, bottom) — the paper's victim-selection quality indicator q.
func (s Stats) AvgNonEmptyVisited() float64 {
	if s.EvictionScans == 0 {
		return 0
	}
	return float64(s.NonEmptyVisited) / float64(s.VisitedSlots)
}

// Add returns s + o, field by field — the aggregation dual of Sub, used
// to total per-rank or per-window stats.
func (s Stats) Add(o Stats) Stats {
	t := s
	t.add(&o)
	return t
}

// add accumulates o into s (used to total per-window stats).
func (s *Stats) add(o *Stats) {
	s.Gets += o.Gets
	s.Hits += o.Hits
	s.FullHits += o.FullHits
	s.PartialHits += o.PartialHits
	s.PendingHits += o.PendingHits
	s.Direct += o.Direct
	s.Conflicting += o.Conflicting
	s.Capacity += o.Capacity
	s.Failing += o.Failing
	s.Evictions += o.Evictions
	s.VisitedSlots += o.VisitedSlots
	s.NonEmptyVisited += o.NonEmptyVisited
	s.EvictionScans += o.EvictionScans
	s.Invalidations += o.Invalidations
	s.Adjustments += o.Adjustments
	s.BytesFromCache += o.BytesFromCache
	s.BytesFromNetwork += o.BytesFromNetwork
	s.BatchOps += o.BatchOps
	s.BatchMisses += o.BatchMisses
	s.BatchMessages += o.BatchMessages
	s.Retries += o.Retries
	s.Timeouts += o.Timeouts
	s.BreakerOpens += o.BreakerOpens
	s.CorruptFills += o.CorruptFills
	s.CheapSkips += o.CheapSkips
	s.Notifications += o.Notifications
	s.NotifyInvalidations += o.NotifyInvalidations
	s.NotifyPatches += o.NotifyPatches
	s.WriteHits += o.WriteHits
	s.WriteBacks += o.WriteBacks
	s.DirtyFlushes += o.DirtyFlushes
	s.LookupTime += o.LookupTime
	s.EvictTime += o.EvictTime
	s.CopyTime += o.CopyTime
	s.MgmtTime += o.MgmtTime
}

// Sub returns the counter deltas accumulated since prev was snapshotted:
// s - prev, field by field. Callers use it to attribute counters to one
// phase of a run (snapshot before, Sub after) instead of hand-subtracting
// individual fields.
func (s Stats) Sub(prev Stats) Stats {
	d := s
	d.Gets -= prev.Gets
	d.Hits -= prev.Hits
	d.FullHits -= prev.FullHits
	d.PartialHits -= prev.PartialHits
	d.PendingHits -= prev.PendingHits
	d.Direct -= prev.Direct
	d.Conflicting -= prev.Conflicting
	d.Capacity -= prev.Capacity
	d.Failing -= prev.Failing
	d.Evictions -= prev.Evictions
	d.VisitedSlots -= prev.VisitedSlots
	d.NonEmptyVisited -= prev.NonEmptyVisited
	d.EvictionScans -= prev.EvictionScans
	d.Invalidations -= prev.Invalidations
	d.Adjustments -= prev.Adjustments
	d.BytesFromCache -= prev.BytesFromCache
	d.BytesFromNetwork -= prev.BytesFromNetwork
	d.BatchOps -= prev.BatchOps
	d.BatchMisses -= prev.BatchMisses
	d.BatchMessages -= prev.BatchMessages
	d.Retries -= prev.Retries
	d.Timeouts -= prev.Timeouts
	d.BreakerOpens -= prev.BreakerOpens
	d.CorruptFills -= prev.CorruptFills
	d.CheapSkips -= prev.CheapSkips
	d.Notifications -= prev.Notifications
	d.NotifyInvalidations -= prev.NotifyInvalidations
	d.NotifyPatches -= prev.NotifyPatches
	d.WriteHits -= prev.WriteHits
	d.WriteBacks -= prev.WriteBacks
	d.DirtyFlushes -= prev.DirtyFlushes
	d.LookupTime -= prev.LookupTime
	d.EvictTime -= prev.EvictTime
	d.CopyTime -= prev.CopyTime
	d.MgmtTime -= prev.MgmtTime
	return d
}

// String renders a compact human-readable summary of the counters.
func (s Stats) String() string {
	return fmt.Sprintf(
		"gets=%d hits=%d (%.1f%%, %d full/%d partial/%d pending) direct=%d conflicting=%d capacity=%d failing=%d evictions=%d invalidations=%d adjustments=%d",
		s.Gets, s.Hits, 100*s.HitRate(), s.FullHits, s.PartialHits, s.PendingHits,
		s.Direct, s.Conflicting, s.Capacity, s.Failing,
		s.Evictions, s.Invalidations, s.Adjustments)
}

// Access describes the last processed get_c: its classification and cost
// breakdown. The micro-benchmarks (Figs. 7–8) read it after each call.
type Access struct {
	Type    AccessType
	Partial bool
	// Lookup, Evict, Copy, Mgmt are the measured CPU costs of the
	// phases; Copy includes both cache→user and user→cache copies
	// attributed to this access (the latter added at epoch closure).
	Lookup simtime.Duration
	Evict  simtime.Duration
	Copy   simtime.Duration
	Mgmt   simtime.Duration
	// Issued reports whether a remote get was issued (false only for
	// full hits on CACHED/PENDING entries).
	Issued bool
}
