package obsv

import (
	"strconv"

	"clampi/internal/core"
	"clampi/internal/simtime"
)

// Metric names emitted by the Collector. Virtual-time histograms carry
// the _vtime_ns suffix to make the unit (virtual nanoseconds, not wall
// time) explicit in dashboards.
const (
	MetricAccesses     = "clampi_accesses_total"      // counter{type}
	MetricPartialHits  = "clampi_partial_hits_total"  // counter
	MetricRemoteGets   = "clampi_remote_gets_total"   // counter (accesses that issued a network get)
	MetricGetBytes     = "clampi_get_bytes_total"     // counter (payload requested by gets)
	MetricEvictions    = "clampi_evictions_total"     // counter{kind=capacity|conflict}
	MetricEvictedBytes = "clampi_evicted_bytes_total" // counter
	MetricAdjustments  = "clampi_adjustments_total"   // counter
	MetricEpochs       = "clampi_epochs_total"        // counter
	MetricInvalidation = "clampi_invalidations_total" // counter (epoch-closure invalidations)
	MetricCopiedBytes  = "clampi_copied_bytes_total"  // counter (user→cache at epoch closure)
	MetricAccessVtime  = "clampi_access_vtime_ns"     // histogram{type,phase}
	MetricIndexSlots   = "clampi_index_slots"         // gauge{rank}
	MetricStorageBytes = "clampi_storage_bytes"       // gauge{rank}

	// MetricNotifyDepth is the notification queue-depth gauge
	// (DESIGN.md §16): the number of delivered but not yet drained
	// descriptors, sampled by the workload (see PublishNotifyDepth).
	MetricNotifyDepth = "clampi_notify_queue_depth" // gauge{rank}
)

// Access phases of the latency histograms. "total" is the summed
// cache-management cost of the access.
var phases = [...]string{"lookup", "evict", "copy", "mgmt", "total"}

const (
	phaseLookup = iota
	phaseEvict
	phaseCopy
	phaseMgmt
	phaseTotal
	numPhases
)

// numAccessTypes covers core's AccessHit..AccessFailing.
const numAccessTypes = int(core.AccessFailing) + 1

// Collector implements core.Observer: it translates the caching layer's
// structured events into registry counters/histograms and, when a Ring
// is attached, trace events. All hot-path metric handles are resolved at
// construction, so per-event work is a handful of atomic adds. A single
// Collector may be shared by every rank of a world (events carry the
// rank id) or created per rank for per-rank registries.
type Collector struct {
	reg  *Registry
	ring *Ring // nil disables tracing

	accesses    [numAccessTypes]*Counter
	phaseHist   [numAccessTypes][numPhases]*Histogram
	partialHits *Counter
	remoteGets  *Counter
	getBytes    *Counter
	evCapacity  *Counter
	evConflict  *Counter
	evBytes     *Counter
	adjustments *Counter
	epochs      *Counter
	invalidates *Counter
	copiedBytes *Counter
}

var _ core.Observer = (*Collector)(nil)

// NewCollector wires a registry (required) and a trace ring (optional,
// nil disables tracing) into an observer installable via
// core.Params.Observer / clampi.WithObserver.
func NewCollector(reg *Registry, ring *Ring) *Collector {
	c := &Collector{
		reg:         reg,
		ring:        ring,
		partialHits: reg.Counter(MetricPartialHits),
		remoteGets:  reg.Counter(MetricRemoteGets),
		getBytes:    reg.Counter(MetricGetBytes),
		evCapacity:  reg.Counter(MetricEvictions, L("kind", "capacity")),
		evConflict:  reg.Counter(MetricEvictions, L("kind", "conflict")),
		evBytes:     reg.Counter(MetricEvictedBytes),
		adjustments: reg.Counter(MetricAdjustments),
		epochs:      reg.Counter(MetricEpochs),
		invalidates: reg.Counter(MetricInvalidation),
		copiedBytes: reg.Counter(MetricCopiedBytes),
	}
	for t := 0; t < numAccessTypes; t++ {
		typ := core.AccessType(t).String()
		c.accesses[t] = reg.Counter(MetricAccesses, L("type", typ))
		for p, phase := range phases {
			c.phaseHist[t][p] = reg.Histogram(MetricAccessVtime, L("type", typ), L("phase", phase))
		}
	}
	return c
}

// Registry returns the collector's registry.
func (c *Collector) Registry() *Registry { return c.reg }

// Ring returns the collector's trace ring (nil when tracing is off).
func (c *Collector) Ring() *Ring { return c.ring }

// OnAccess implements core.Observer.
func (c *Collector) OnAccess(e core.AccessEvent) {
	t := int(e.Type)
	if t < 0 || t >= numAccessTypes {
		t = 0
	}
	c.accesses[t].Inc()
	c.getBytes.Add(int64(e.Size))
	if e.Partial {
		c.partialHits.Inc()
	}
	if e.Issued {
		c.remoteGets.Inc()
	}
	// Phase histograms skip phases the access never entered (zero
	// cost), so bucket 0 counts genuinely-instant work, not absences;
	// the total is always observed.
	c.observePhase(t, phaseLookup, e.Lookup)
	c.observePhase(t, phaseEvict, e.Evict)
	c.observePhase(t, phaseCopy, e.Copy)
	c.observePhase(t, phaseMgmt, e.Mgmt)
	c.phaseHist[t][phaseTotal].Observe(e.Total())
	if c.ring != nil {
		c.ring.Append(accessEvent(e))
	}
}

func (c *Collector) observePhase(t, p int, d simtime.Duration) {
	if d > 0 {
		c.phaseHist[t][p].Observe(d)
	}
}

// OnEviction implements core.Observer.
func (c *Collector) OnEviction(e core.EvictionEvent) {
	if e.Conflict {
		c.evConflict.Inc()
	} else {
		c.evCapacity.Inc()
	}
	c.evBytes.Add(int64(e.Bytes))
	if c.ring != nil {
		c.ring.Append(evictionEvent(e))
	}
}

// OnAdjustment implements core.Observer.
func (c *Collector) OnAdjustment(e core.AdjustmentEvent) {
	c.adjustments.Inc()
	rank := L("rank", strconv.Itoa(e.Rank))
	c.reg.Gauge(MetricIndexSlots, rank).Set(int64(e.IndexSlots))
	c.reg.Gauge(MetricStorageBytes, rank).Set(int64(e.StorageBytes))
	if c.ring != nil {
		c.ring.Append(adjustmentEvent(e))
	}
}

// OnEpochClose implements core.Observer.
func (c *Collector) OnEpochClose(e core.EpochEvent) {
	c.epochs.Inc()
	c.copiedBytes.Add(int64(e.CopiedBytes))
	if e.Invalidated {
		c.invalidates.Inc()
	}
	if c.ring != nil {
		c.ring.Append(epochEvent(e))
	}
}

// PublishStats exports a core.Stats snapshot into the registry as gauges
// under the given label set — the bridge for final per-run totals that
// flow through Stats aggregation rather than through live events.
func PublishStats(reg *Registry, s core.Stats, labels ...Label) {
	set := func(name string, v int64) {
		reg.Gauge(name, labels...).Set(v)
	}
	set("clampi_stats_gets", s.Gets)
	set("clampi_stats_hits", s.Hits)
	set("clampi_stats_full_hits", s.FullHits)
	set("clampi_stats_partial_hits", s.PartialHits)
	set("clampi_stats_pending_hits", s.PendingHits)
	set("clampi_stats_direct", s.Direct)
	set("clampi_stats_conflicting", s.Conflicting)
	set("clampi_stats_capacity", s.Capacity)
	set("clampi_stats_failing", s.Failing)
	set("clampi_stats_prefetches", s.Prefetches)
	set("clampi_stats_evictions", s.Evictions)
	set("clampi_stats_visited_slots", s.VisitedSlots)
	set("clampi_stats_nonempty_visited", s.NonEmptyVisited)
	set("clampi_stats_eviction_scans", s.EvictionScans)
	set("clampi_stats_invalidations", s.Invalidations)
	set("clampi_stats_adjustments", s.Adjustments)
	set("clampi_stats_bytes_from_cache", s.BytesFromCache)
	set("clampi_stats_bytes_from_network", s.BytesFromNetwork)
	set("clampi_stats_batch_ops", s.BatchOps)
	set("clampi_stats_batch_misses", s.BatchMisses)
	set("clampi_stats_batch_messages", s.BatchMessages)
	set("clampi_stats_retries", s.Retries)
	set("clampi_stats_timeouts", s.Timeouts)
	set("clampi_stats_stale_serves", s.StaleServes)
	set("clampi_stats_breaker_opens", s.BreakerOpens)
	set("clampi_stats_corrupt_fills", s.CorruptFills)
	set("clampi_stats_notifications", s.Notifications)
	set("clampi_stats_notify_invalidations", s.NotifyInvalidations)
	set("clampi_stats_notify_patches", s.NotifyPatches)
	set("clampi_stats_write_hits", s.WriteHits)
	set("clampi_stats_write_backs", s.WriteBacks)
	set("clampi_stats_dirty_flushes", s.DirtyFlushes)
	set("clampi_stats_cheap_skips", s.CheapSkips)
	set("clampi_stats_lookup_vtime_ns", int64(s.LookupTime))
	set("clampi_stats_evict_vtime_ns", int64(s.EvictTime))
	set("clampi_stats_copy_vtime_ns", int64(s.CopyTime))
	set("clampi_stats_mgmt_vtime_ns", int64(s.MgmtTime))
}

// PublishNotifyDepth exports the notification queue-depth gauge: depth
// delivered-but-undrained descriptors at sampling time (feed it
// core.Cache.NotifyQueueDepth, or a workload's observed maximum for
// final per-run totals).
func PublishNotifyDepth(reg *Registry, depth int, labels ...Label) {
	reg.Gauge(MetricNotifyDepth, labels...).Set(int64(depth))
}
