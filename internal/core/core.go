// Package core implements CLaMPI, the caching layer for MPI-3 RMA get
// operations (paper §III).
//
// A Cache attaches to one rma.Window and intercepts get operations
// issued through it; any transport implementing the rma interfaces
// (internal/mpi is the first) can sit underneath. Each get_c is looked up in a Cuckoo hash index I_w keyed by
// (target, displacement); hits are served from a contiguous storage buffer
// S_w with a local memory copy, misses fall through to the underlying
// MPI_Get and are opportunistically inserted into the cache. Inserts may
// fail ("weak caching"): at most one eviction is performed per miss, so
// the overhead added to an uncached get is strictly bounded.
//
// Consistency follows the MPI-3 epoch model: data requested in epoch i is
// only complete at the closure of epoch i, so a missed get's payload is
// copied into the cache at the epoch-closure event (Flush/Unlock), when
// the entry transitions PENDING→CACHED. In Transparent mode the entire
// cache is additionally invalidated at every epoch closure; AlwaysCache
// keeps entries across epochs (read-only windows); user code may call
// Invalidate explicitly (the paper's user-defined mode).
package core

import (
	"errors"
	"fmt"
	"math/rand"

	"clampi/internal/cuckoo"
	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/rma"
	"clampi/internal/simtime"
	"clampi/internal/storage"
)

// Mode is the operational mode of a caching-enabled window (§III-A).
type Mode int

const (
	// Transparent requires no application knowledge: the cache is
	// invalidated at every epoch closure.
	Transparent Mode = iota
	// AlwaysCache never invalidates automatically: for windows whose
	// memory is read-only over their whole lifespan. The user-defined
	// mode of the paper is AlwaysCache plus explicit Invalidate calls.
	AlwaysCache
)

func (m Mode) String() string {
	switch m {
	case Transparent:
		return "transparent"
	case AlwaysCache:
		return "always-cache"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// InfoKey is the MPI_Info key CLaMPI reads at window creation to select
// the operational mode ("transparent" or "always-cache").
const InfoKey = "clampi_mode"

// EvictionScheme selects the victim-scoring function (§III-D1, Fig. 10).
type EvictionScheme int

const (
	// SchemeFull scores victims by R_P × R_T (the paper's proposal).
	SchemeFull EvictionScheme = iota
	// SchemeTemporal uses only R_T (LRU-like).
	SchemeTemporal
	// SchemePositional uses only R_P (fragmentation-only).
	SchemePositional
)

func (s EvictionScheme) String() string {
	switch s {
	case SchemeFull:
		return "full"
	case SchemeTemporal:
		return "temporal"
	case SchemePositional:
		return "positional"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Params configures a Cache. Zero values select the defaults below.
type Params struct {
	// IndexSlots is the initial |I_w| (number of hash-table slots).
	IndexSlots int
	// StorageBytes is the initial |S_w| (cache buffer size).
	StorageBytes int
	// SampleSize is M, the number of index slots sampled per capacity
	// eviction (§III-D).
	SampleSize int
	// Scheme selects the victim-scoring function.
	Scheme EvictionScheme
	// Mode is the operational mode.
	Mode Mode
	// Adaptive enables runtime parameter tuning (§III-E1).
	Adaptive bool
	// Seed makes hash functions and sampling deterministic.
	Seed int64

	// TuneInterval is the number of gets between adaptive checks
	// (evaluated at epoch closures).
	TuneInterval int64
	// AllocPolicy selects the storage allocation strategy; the default
	// is the paper's best-fit (storage.BestFit). FirstFit exists as an
	// ablation baseline.
	AllocPolicy storage.Policy
	// Observer receives structured access/eviction/adjustment/epoch
	// events (see observe.go). nil disables emission; the disabled
	// cost on the get path is a single branch.
	Observer Observer

	// Retry, when non-nil, retries remote gets that fail with
	// rma.ErrTransient under the given policy (resilience.go); nil
	// disables retrying (transient failures surface to the caller).
	Retry *rma.RetryPolicy
	// Breaker, when non-nil, adds a per-target circuit breaker in front
	// of remote gets (breaker.go). Implies retrying: when Retry is nil,
	// rma.DefaultRetryPolicy applies.
	Breaker *BreakerPolicy
	// VerifyFills checks every fill payload against the backend's
	// integrity attestation (rma.IntegrityWindow) and stamps cached
	// entries with their payload checksum; corrupted fills are refetched
	// instead of served or cached. Ignored (with verification skipped)
	// when the backend cannot attest. Implies retrying, as Breaker.
	VerifyFills bool

	// LocalityAware makes the cache cost-aware (DESIGN.md §15): cheap
	// same-socket fills (under DefaultCheapFillThreshold) bypass
	// admission and eviction victim scores are weighted by per-target
	// refill cost. Requires the window to implement rma.LocalityWindow;
	// silently inert otherwise.
	LocalityAware bool

	// NotifyTargeted subscribes the cache to the window's write
	// notifications (rma.NotifyWindow) and replaces the transparent
	// mode's blanket epoch invalidation with targeted span coherence
	// (DESIGN.md §16): drained notifications invalidate — or patch in
	// place, when they carry the written bytes — exactly the cached
	// spans a remote PutNotify touched. Sound under the UNR contract
	// that remote writers notify their writes; a shed or lost
	// notification degrades to a full invalidation, never to silent
	// staleness. Silently inert when the backend lacks the extension.
	NotifyTargeted bool
	// WriteBack buffers Put/PutNotify spans locally and flushes
	// coalesced runs at epoch closure (or once DefaultWriteBackMaxSpans
	// spans are staged) instead of writing through per call. Legal under
	// the §II epoch contract: remote visibility of a put is only promised
	// at the next closure.
	WriteBack bool
}

// Defaults for Params fields left zero.
const (
	DefaultIndexSlots   = 4096
	DefaultStorageBytes = 4 << 20
	DefaultSampleSize   = 16
	DefaultTuneInterval = 1024
)

// DefaultWriteBackMaxSpans bounds the write-back buffer: enough to
// coalesce a halo exchange's worth of edge writes, small enough that a
// forced flush stays cheap. Staging past it (or a write overlapping an
// already-staged span) forces an early flush.
const DefaultWriteBackMaxSpans = 64

func (p *Params) setDefaults() {
	if p.IndexSlots <= 0 {
		p.IndexSlots = DefaultIndexSlots
	}
	if p.StorageBytes <= 0 {
		p.StorageBytes = DefaultStorageBytes
	}
	if p.SampleSize <= 0 {
		p.SampleSize = DefaultSampleSize
	}
	if p.TuneInterval <= 0 {
		p.TuneInterval = DefaultTuneInterval
	}
}

// entryState is the per-entry state machine of Fig. 5. MISSING is
// represented by absence from the index; evicted entries that still have
// in-flight bookkeeping are marked stateEvicted so deferred work skips
// them.
type entryState int

const (
	statePending entryState = iota
	stateCached
	stateEvicted
)

// entry is the cache-entry record (the paper's i = (trg, dsp, dtype,
// count, ptr) tuple; dtype/count are folded into the stored payload size).
// The index holds it through a ref, whose copy of the fields a hit reads
// spares a full hit the load of the record.
type entry struct {
	key     cuckoo.Key
	payload int // valid bytes cached (size(i))
	state   entryState
	region  *storage.Region
	sum     uint64 // payload checksum (0 unless Params.VerifyFills)

	// PENDING bookkeeping: src is the user destination buffer of the
	// get that missed; its bytes are copied into region at epoch
	// closure. waiters are same-epoch hits on this PENDING entry.
	src     []byte
	waiters []waiter
	// pendingExt records an in-flight partial-hit extension: bytes
	// [extFrom:extTo) of the entry will be valid at epoch closure.
	extSrc  []byte
	extFrom int
	extTo   int
}

type waiter struct {
	dst  []byte
	size int
}

// ref is the value an index slot holds for one entry: the record, and
// beside the key the fields a full hit reads, so that a hit touches the
// slot and the payload and nothing in between. off and hit copy the
// entry's region offset and servable size; onEpochClose publishes hit at
// the two transitions that change it (PENDING → CACHED, payload growth).
// last has no other home. The 32-bit fields address every buffer New
// accepts: it refuses StorageBytes above maxStorageBytes.
type ref struct {
	e    *entry
	off  uint32 // region.Off()
	hit  int32  // bytes a full hit may serve: the payload while CACHED, -1 while PENDING
	last int64  // index in C_w.G of the last matching get_c (R_T, §III-D)
}

// cached reports whether the entry behind r is CACHED: every indexed entry
// is CACHED or PENDING, and only a PENDING one serves nothing.
func (r *ref) cached() bool { return r.hit >= 0 }

// Cache is the caching layer C_w attached to one window.
type Cache struct {
	win    rma.Window
	clock  *simtime.Clock
	params Params
	mode   Mode
	rank   int      // owning rank id, stamped into emitted events
	obs    Observer // nil when observability is disabled

	idx   *cuckoo.Table[ref]
	store *storage.Manager
	rng   *rand.Rand
	// evictable counts the CACHED entries in idx, the ones a capacity
	// scan may evict (evict.go). It rises at the epoch closure that
	// completes a PENDING entry and falls in retire.
	evictable int

	getSeq      int64 // index in C_w.G
	sumGetSizes int64 // for the average get size (ags)

	pending []*entry // entries awaiting epoch-closure copy-in

	// Range-query state (range.go): view is nil until the first range
	// query this cache receives, victims is that query's scratch.
	view    *spanView
	victims []*entry

	// Entry-record pool (allocation-free steady state): evicted records
	// first land on dead — they may still be referenced from pending
	// until the epoch closes — and move to free once the pending queue
	// has drained, where newEntry picks them up again.
	free []*entry
	dead []*entry

	stats    Stats // running totals since creation
	tuneSnap Stats // snapshot of stats at the last adaptive evaluation

	last Access // last processed get_c

	// arena is epoch-lifetime staging storage for batched miss payloads;
	// see stageBuf. Reset (capacity kept) when the pending queue drains.
	arena []byte

	// GetBatch working state (see batch.go), reused across calls.
	bwin    rma.BatchWindow // non-nil when the transport batches natively
	bops    []rma.GetOp     // merged-range issue buffer
	bmisses []batchMiss     // coalescible-miss workspace
	bruns   []batchRun      // merged-range workspace
	bvict   []scoredVictim  // batch capacity-eviction reservoir
	inBatch bool            // insertPending draws victims from bvict

	// Resilience state (resilience.go, breaker.go); zero when no
	// resilience option is configured.
	resilient   bool                // any of Retry/Breaker/VerifyFills set
	retry       rma.RetryPolicy     // effective retry policy
	retryRng    *rand.Rand          // deterministic backoff jitter (Seed+2)
	retryBudget int64               // retries spent against retry.Budget
	brk         *breaker            // per-target circuit breakers, nil if disabled
	verify      bool                // fill verification enabled
	iw          rma.IntegrityWindow // backend attestation, nil if unsupported
	dw          rma.DeadlineWindow  // per-op deadline propagation, nil if unsupported

	// Locality state (locality.go); lw is nil unless Params.LocalityAware
	// is set and the backend implements rma.LocalityWindow.
	lw        rma.LocalityWindow // locality oracle, nil when disabled
	distStats []DistanceStats    // per-class activity, indexed by class

	// Notifiable-RMA state (notify.go); nw is non-nil whenever the
	// backend implements the extension, nsub only when NotifyTargeted
	// subscribed this cache to its window's queue.
	nw      rma.NotifyWindow
	nsub    bool
	nbuf    []notify.Notification // drain scratch, notifyDrainBatch long
	nextSeq uint64                // next expected notification sequence

	// Write-back state (notify.go); all empty unless Params.WriteBack.
	dirty   []dirtySpan
	wbArena []byte // staged dirty bytes; lives until the buffer flushes
	wbMerge []byte // coalesced-run assembly scratch
	wbErr   error  // deferred error from an epoch-closure flush
}

// Errors.
var (
	ErrNilWindow = errors.New("core: nil window")
	// ErrStorageTooLarge reports Params.StorageBytes above maxStorageBytes,
	// the largest buffer an index slot's 32-bit offset and size address.
	ErrStorageTooLarge = errors.New("core: storage exceeds the 2 GiB a slot addresses")
)

// New attaches a caching layer to win. If params.Mode is not set
// explicitly, the window's InfoKey entry is consulted ("always-cache"
// selects AlwaysCache; anything else is Transparent).
func New(win rma.Window, params Params) (*Cache, error) {
	if win == nil {
		return nil, ErrNilWindow
	}
	params.setDefaults()
	if params.StorageBytes > maxStorageBytes {
		return nil, ErrStorageTooLarge
	}
	mode := params.Mode
	if info := win.Info(); info != nil {
		if v, ok := info[InfoKey]; ok {
			if v == "always-cache" {
				mode = AlwaysCache
			} else {
				mode = Transparent
			}
		}
	}
	c := &Cache{
		win:    win,
		clock:  win.Endpoint().Clock(),
		params: params,
		mode:   mode,
		rank:   win.Endpoint().ID(),
		obs:    params.Observer,
		idx:    newIndex(params.IndexSlots, params.Seed),
		store:  storage.NewWithPolicy(params.StorageBytes, params.AllocPolicy),
		rng:    rand.New(rand.NewSource(params.Seed + 1)),
	}
	c.bwin, _ = win.(rma.BatchWindow)
	if params.Retry != nil || params.Breaker != nil || params.VerifyFills {
		c.resilient = true
		if params.Retry != nil {
			c.retry = *params.Retry
		} else {
			c.retry = rma.DefaultRetryPolicy()
		}
		// Seed+2: distinct stream from the eviction-sampling RNG (Seed+1)
		// so enabling resilience never perturbs victim selection.
		c.retryRng = rand.New(rand.NewSource(params.Seed + 2))
		if params.Breaker != nil {
			c.brk = newBreaker(*params.Breaker, win.Endpoint().Size())
		}
		if params.VerifyFills {
			c.verify = true
			c.iw, _ = win.(rma.IntegrityWindow)
		}
		if c.retry.Deadline > 0 {
			// Transports whose ops occupy real wall time (sockets) accept
			// the per-attempt deadline directly, so a hung read fails with
			// ErrTimeout instead of outliving the virtual-time budget.
			c.dw, _ = win.(rma.DeadlineWindow)
		}
	}
	c.initLocality()
	c.nw, _ = win.(rma.NotifyWindow)
	if params.NotifyTargeted && c.nw != nil {
		if err := c.nw.NotifyEnable(0); err != nil {
			return nil, err
		}
		c.nsub = true
		c.nbuf = make([]notify.Notification, notifyDrainBatch)
		c.nextSeq = 1
	}
	win.AddEpochListener(c.onEpochClose)
	return c, nil
}

// Mode returns the operational mode.
func (c *Cache) Mode() Mode { return c.mode }

// Stats returns a snapshot of the running counters.
func (c *Cache) Stats() Stats { return c.stats }

// LastAccess returns the classification and cost breakdown of the most
// recent get_c.
func (c *Cache) LastAccess() Access { return c.last }

// IndexSlots returns the current |I_w|.
func (c *Cache) IndexSlots() int { return c.idx.Cap() }

// StorageBytes returns the current |S_w|.
func (c *Cache) StorageBytes() int { return c.store.Capacity() }

// Occupancy returns the fraction of S_w holding entries (Fig. 10).
func (c *Cache) Occupancy() float64 { return c.store.Occupancy() }

// CachedEntries returns the number of entries currently indexed.
func (c *Cache) CachedEntries() int { return c.idx.Len() }

// Win returns the underlying window.
func (c *Cache) Win() rma.Window { return c.win }

// avgGetSize returns C_w.ags: the mean payload of all processed gets.
func (c *Cache) avgGetSize() float64 {
	if c.getSeq == 0 {
		return 0
	}
	return float64(c.sumGetSizes) / float64(c.getSeq)
}

// Get processes a get_c (§III-B): it serves the request from the cache
// when possible and falls through to the window's MPI_Get otherwise,
// opportunistically caching the result. dst receives the packed payload,
// valid — exactly as with a plain MPI_Get — after the next epoch-closure
// call (Flush/Unlock) on the window.
func (c *Cache) Get(dst []byte, dtype datatype.Datatype, count int, target, disp int) error {
	size := datatype.TransferSize(dtype, count)
	if len(dst) < size {
		return rma.ErrShortBuf
	}
	r, err := c.openGet(target, disp, size)
	if err != nil {
		return err
	}
	switch {
	case r == nil:
		err = c.serveMiss(cuckoo.Key{Target: target, Disp: disp}, dst, dtype, count, target, disp, size)
	case size <= int(r.hit):
		c.fullHit(r, dst[:size], target)
	default:
		err = c.serveHit(r, dst, target, disp, size)
	}
	c.emitAccess(target, disp, size, err)
	return err
}

// openGet records the arrival of one get_c and probes the index for it,
// returning the slot record under its key in place (nil on a miss). Two
// coherence steps come first, each a single test when idle, so the stale
// bytes leave the cache before the probe can hit them: a read overlapping a
// staged dirty span flushes the write-back buffer (read-your-writes), and
// pending write notifications are drained (access-time coherence,
// DESIGN.md §16).
func (c *Cache) openGet(target, disp, size int) (*ref, error) {
	if len(c.dirty) > 0 {
		if err := c.flushOverlap(target, disp, size); err != nil {
			return nil, err
		}
	}
	if c.nsub && c.nw.NotifyDepth() > 0 {
		c.drainNotifications()
	}
	c.getSeq++
	c.sumGetSizes += int64(size)
	c.stats.Gets++
	r, lookupT := c.lookup(cuckoo.Key{Target: target, Disp: disp})
	c.last = Access{Lookup: lookupT}
	c.stats.LookupTime += lookupT
	return r, nil
}

// fullHit serves a get_c that the CACHED payload behind slot record r
// covers whole (len(dst) <= r.hit): one copy and the hit's accounting
// (§III-B1). With openGet's probe before it that is the entire hit — every
// full hit on cached data, from Get and GetBatch alike, is served here and
// nowhere else, and none reads the entry record.
func (c *Cache) fullHit(r *ref, dst []byte, target int) {
	r.last = c.getSeq
	copyT := c.copyOut(dst, c.store.Slice(int(r.off), len(dst)))
	c.last.Type = AccessHit
	c.last.Copy = copyT
	c.stats.Hits++
	c.stats.FullHits++
	c.stats.CopyTime += copyT
	c.stats.BytesFromCache += int64(len(dst))
	c.noteDistHit(target)
}

// lookup probes the index and charges the probe. The slot record it
// returns in place (nil if key is absent) is valid until the index next
// changes.
func (c *Cache) lookup(key cuckoo.Key) (*ref, simtime.Duration) {
	return c.idx.Ptr(key), c.charge(CostLookup)
}

// copyOut copies a served payload cache→user and charges the copy.
func (c *Cache) copyOut(dst, src []byte) simtime.Duration {
	copy(dst, src)
	return c.charge(copyCost(len(dst)))
}

// emitAccess reports the classified access recorded in c.last. Unobserved
// it is one inlined test; the event is built out of line.
func (c *Cache) emitAccess(target, disp, size int, err error) {
	if c.obs != nil && err == nil {
		c.observeAccess(target, disp, size)
	}
}

// observeAccess is emitAccess's body: the event of the access in c.last.
func (c *Cache) observeAccess(target, disp, size int) {
	c.obs.OnAccess(AccessEvent{
		Rank:    c.rank,
		Epoch:   c.win.Epoch(),
		Time:    c.clock.Now(),
		Type:    c.last.Type,
		Partial: c.last.Partial,
		Issued:  c.last.Issued,
		Target:  target,
		Disp:    disp,
		Size:    size,
		Lookup:  c.last.Lookup,
		Evict:   c.last.Evict,
		Copy:    c.last.Copy,
		Mgmt:    c.last.Mgmt,
	})
}

// serveHit handles the hits that are not a plain copy (§III-B1): a CACHED
// entry shorter than the request (partial hit: the suffix is fetched and
// the entry extended) and PENDING entries (the copy waits for the epoch
// closure). Full hits on CACHED entries never get here; see fullHit. r is
// the entry's slot record; it is not read after the first remote get.
func (c *Cache) serveHit(r *ref, dst []byte, target, disp, size int) error {
	r.last = c.getSeq
	e := r.e
	c.stats.Hits++
	c.last.Type = AccessHit

	full := size <= e.payload
	if full {
		c.stats.FullHits++
		c.noteDistHit(target)
	} else {
		c.stats.PartialHits++
		c.last.Partial = true
	}

	served := min(size, e.payload)

	if e.state == statePending {
		// Same-epoch repeat: the data is already on the wire; defer
		// the copy to epoch closure (§III-B1).
		c.stats.PendingHits++
		e.waiters = append(e.waiters, waiter{dst: dst[:served], size: served})
		c.stats.BytesFromCache += int64(served)
		if full {
			return nil
		}
		if err := c.netGet(dst[served:size], datatype.Byte, size-served, target, disp+served); err != nil {
			return err
		}
		c.last.Issued = true
		c.stats.BytesFromNetwork += int64(size - served)
		return nil
	}

	// Partial hit on a CACHED entry: serve the cached prefix, fetch the
	// missing part remotely and try to extend the entry (§III-B1).
	copyT := c.copyOut(dst[:served], c.store.Slice(int(r.off), served))
	c.last.Copy = copyT
	c.stats.CopyTime += copyT
	c.stats.BytesFromCache += int64(served)
	if err := c.netGet(dst[served:size], datatype.Byte, size-served, target, disp+served); err != nil {
		return err
	}
	c.last.Issued = true
	c.stats.BytesFromNetwork += int64(size - served)
	grown := c.store.Grow(e.region, size-e.region.Size())
	mgmtT := c.charge(CostAlloc)
	c.last.Mgmt = mgmtT
	c.stats.MgmtTime += mgmtT
	if grown {
		e.extSrc = dst[served:size]
		e.extFrom = served
		e.extTo = size
		c.pending = append(c.pending, e)
	}
	return nil
}

// serveMiss handles MISSING lookups: issue the remote get and try to
// cache the incoming data (§III-B2). The remote get is issued first so
// its network time overlaps the cache-management work.
func (c *Cache) serveMiss(key cuckoo.Key, dst []byte, dtype datatype.Datatype, count, target, disp, size int) error {
	if err := c.netGet(dst, dtype, count, target, disp); err != nil {
		return err
	}
	c.last.Issued = true
	c.stats.BytesFromNetwork += int64(size)
	c.finish(c.insertPending(key, dst[:size], size))
	return nil
}

// insertPending tries to admit one missed range into the cache as a
// PENDING entry whose payload is copied in from src at epoch closure
// (§III-B2), and returns the access classification. Weak caching: at
// most one eviction (capacity or conflict) is performed; if storage
// still cannot be allocated the access fails and nothing is cached.
// src must stay intact until the epoch closes.
func (c *Cache) insertPending(key cuckoo.Key, src []byte, size int) AccessType {
	if size == 0 {
		// A zero-byte get holds nothing a later get could hit, at any
		// displacement: delivered without a slot, a region or a
		// management charge, classified direct as a cheap skip is.
		return AccessDirect
	}
	if c.cheapSkip(key.Target, size) {
		// Cost-aware admission bypass (DESIGN.md §15): the target is a
		// memcpy away, so caching would spend storage and eviction
		// pressure to save less than the management cost. Delivered
		// without storing; classified direct (no eviction happened) and
		// tallied separately.
		c.stats.CheapSkips++
		return AccessDirect
	}
	if c.brk != nil && !c.brk.closed(key.Target) {
		// Degraded target: the fill itself succeeded (possibly via a
		// half-open probe), but the target is not yet re-certified
		// healthy. Fail over to direct gets — deliver without admitting,
		// so the cache never fills with payloads from a flapping peer
		// that the next probe may disown (DESIGN.md §11).
		return AccessFailing
	}
	// --- Storage allocation (may require one capacity eviction). ---
	region := c.store.Alloc(size)
	mgmtT := c.charge(CostAlloc)
	accessType := AccessDirect
	if region == nil {
		// Inside a batch the victim comes from the reservoir filled by
		// one amortized scan (its cost was charged at fill time); a
		// drained reservoir falls back to a fresh per-miss scan.
		var victim *entry
		if c.inBatch {
			victim = c.nextBatchVictim()
		}
		if victim == nil {
			var evictT simtime.Duration
			victim, evictT = c.selectCapacityVictim()
			c.last.Evict += evictT
		}
		if victim != nil {
			c.evictEntry(victim)
			accessType = AccessCapacity
		}
		region = c.store.Alloc(size)
		mgmtT += c.charge(CostAlloc)
		if region == nil {
			// Weak caching: give up after a single eviction.
			c.recordMgmt(mgmtT)
			return AccessFailing
		}
	}

	// --- Index insertion (may require one conflict eviction). ---
	e := c.newEntry(key, region, size, src)
	if c.verify {
		// Stamp the entry with its payload checksum (the fill was already
		// verified against the target attestation in netGet); cached-side
		// integrity checks revalidate against it.
		e.sum = rma.ChecksumBytes(src[:size])
		mgmtT += c.charge(checksumCost(size))
	}
	res := c.idx.Insert(key, ref{e: e, off: uint32(region.Off()), hit: -1, last: c.getSeq})
	mgmtT += c.charge(CostInsert)
	if !res.Placed {
		victimSlot, evictT := c.selectConflictVictim(res.CandidateSlots)
		c.last.Evict += evictT
		if victimSlot < 0 {
			// All candidate slots hold PENDING entries: cannot
			// evict any; drop the new entry, which the failed
			// insert left homeless.
			c.dropHomeless(e)
			c.recordMgmt(mgmtT)
			return AccessFailing
		}
		if evictedKey, evicted := c.idx.ReplaceAt(victimSlot, key, res.HomelessVal); evicted.e != nil {
			c.freeEvicted(evictedKey, evicted.e)
		}
		mgmtT += c.charge(CostInsert + CostFree)
		accessType = AccessConflicting
	}
	c.indexed(e)
	c.recordMgmt(mgmtT)
	return accessType
}

// indexed records that the new PENDING entry e found its index slot: it
// joins the epoch-closure queue and, where there is one, the ordered view.
func (c *Cache) indexed(e *entry) {
	c.pending = append(c.pending, e)
	if c.view != nil {
		c.view.add(e)
	}
}

// newEntry takes a record off the free list (or allocates one) and
// initializes it PENDING for key.
func (c *Cache) newEntry(key cuckoo.Key, region *storage.Region, size int, src []byte) *entry {
	var e *entry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		e = &entry{}
	}
	e.key = key
	e.region = region
	e.payload = size
	e.state = statePending
	e.src = src
	return e
}

// retire marks an entry evicted and parks it on the graveyard. Every
// entry that leaves the index passes through here, so this is also where
// it leaves the ordered view (range.go) and the count of CACHED entries.
// Records are recycled onto the free list only once the pending queue
// drains (epoch closure or invalidation), because a stateEvicted record
// may still sit in c.pending until then; a retired PENDING record keeps
// carrying its waiters until recycling.
func (c *Cache) retire(e *entry) {
	if e.state == stateCached {
		c.evictable--
	}
	e.state = stateEvicted
	if c.view != nil {
		c.view.remove(e)
	}
	c.dead = append(c.dead, e)
}

// recycleDead moves the graveyard onto the free list, dropping every
// buffer reference while keeping waiter-slice capacity. Must only run
// right after the pending queue was drained — no stateEvicted record
// can then still be referenced from c.pending.
func (c *Cache) recycleDead() {
	for i, e := range c.dead {
		e.region = nil
		e.src = nil
		e.sum = 0
		e.extSrc = nil
		e.extFrom, e.extTo = 0, 0
		clearWaiters(e)
		c.free = append(c.free, e)
		c.dead[i] = nil
	}
	c.dead = c.dead[:0]
}

// clearWaiters empties the waiter queue, dropping user-buffer references
// but keeping the slice capacity for reuse in later epochs.
func clearWaiters(e *entry) {
	clear(e.waiters)
	e.waiters = e.waiters[:0]
}

// dropHomeless releases the storage of a new entry that could not be
// indexed.
func (c *Cache) dropHomeless(e *entry) {
	c.store.FreeRegion(e.region)
	c.retire(e)
}

// freeEvicted releases an entry displaced by a conflict eviction. key is
// the index key the entry was displaced under (as returned by
// cuckoo.Table.ReplaceAt), reported to OnEviction observers so they see
// exactly which entry the conflict pushed out.
func (c *Cache) freeEvicted(key cuckoo.Key, e *entry) {
	c.store.FreeRegion(e.region)
	c.retire(e)
	c.stats.Evictions++
	c.emitEviction(key, e.payload, true)
}

// evictEntry removes a capacity-eviction victim from index and storage.
func (c *Cache) evictEntry(e *entry) {
	c.idx.Delete(e.key)
	c.store.FreeRegion(e.region)
	c.charge(CostLookup + CostFree)
	c.retire(e)
	c.stats.Evictions++
	c.emitEviction(e.key, e.payload, false)
}

// emitEviction reports one evicted entry to the observer.
func (c *Cache) emitEviction(key cuckoo.Key, payload int, conflict bool) {
	if c.obs == nil {
		return
	}
	c.obs.OnEviction(EvictionEvent{
		Rank:     c.rank,
		Epoch:    c.win.Epoch(),
		Time:     c.clock.Now(),
		Target:   key.Target,
		Disp:     key.Disp,
		Bytes:    payload,
		Conflict: conflict,
	})
}

func (c *Cache) recordMgmt(d simtime.Duration) {
	c.last.Mgmt += d
	c.stats.MgmtTime += d
}

// finish classifies the completed miss.
func (c *Cache) finish(t AccessType) {
	c.last.Type = t
	switch t {
	case AccessDirect:
		c.stats.Direct++
	case AccessConflicting:
		c.stats.Conflicting++
	case AccessCapacity:
		c.stats.Capacity++
	case AccessFailing:
		c.stats.Failing++
	}
}

// onEpochClose is the window epoch listener: it flushes buffered writes,
// completes PENDING entries (the deferred user→cache copies, §II), then
// applies transparent-mode invalidation — or, when subscribed to write
// notifications, targeted coherence — and adaptive tuning. Epoch
// listeners run before the transport's synchronization rendezvous
// (mpi.Fence barriers and wire OpBarrier both close the epoch first), so
// dirty spans flushed here are delivered before any peer passes its own
// fence.
func (c *Cache) onEpochClose(epoch int64) {
	if len(c.dirty) > 0 {
		if err := c.flushDirty(); err != nil && c.wbErr == nil {
			// The listener cannot fail; surface at the next write call.
			c.wbErr = err
		}
	}
	copiedBytes := 0
	completed := 0
	for _, e := range c.pending {
		if e.state == stateEvicted {
			continue
		}
		if e.state == statePending {
			copy(c.store.Bytes(e.region, e.payload), e.src)
			copiedBytes += e.payload
			completed++
			e.state = stateCached
			c.evictable++
			c.publishHit(e)
			e.src = nil
			for _, w := range e.waiters {
				copy(w.dst, c.store.Bytes(e.region, w.size))
				copiedBytes += w.size
			}
			clearWaiters(e)
		}
		if e.extTo > e.extFrom {
			// Partial-hit extension: append the suffix.
			buf := c.store.Bytes(e.region, e.extTo)
			copy(buf[e.extFrom:e.extTo], e.extSrc)
			copiedBytes += e.extTo - e.extFrom
			if e.extTo > e.payload {
				e.payload = e.extTo
				c.publishHit(e)
				if c.view != nil {
					c.view.maxPayload = max(c.view.maxPayload, e.payload)
				}
			}
			if c.verify {
				// The payload changed shape: restamp its checksum.
				e.sum = rma.ChecksumBytes(c.store.Bytes(e.region, e.payload))
			}
			e.extSrc = nil
			e.extFrom, e.extTo = 0, 0
		}
	}
	var copyT simtime.Duration
	if copiedBytes > 0 {
		copyT = c.charge(copyCost(copiedBytes))
	}
	c.last.Copy += copyT
	c.stats.CopyTime += copyT
	c.pending = c.pending[:0]
	c.recycleDead()
	c.arena = c.arena[:0]

	invalidated := false
	if c.nsub {
		// Targeted coherence (DESIGN.md §16): spans written during the
		// epoch leave (or are patched in) the cache individually, so the
		// transparent blanket invalidation below is skipped and entries
		// survive across closures — which also makes adaptive tuning
		// meaningful in transparent mode (epochs no longer start cold).
		c.drainNotifications()
	}
	if c.mode == Transparent && !c.nsub {
		// Tuning is pointless when every epoch starts cold.
		c.Invalidate()
		invalidated = true
	} else if c.params.Adaptive && c.stats.Gets-c.tuneSnap.Gets >= c.params.TuneInterval {
		c.tune()
	}
	if c.obs != nil {
		c.obs.OnEpochClose(EpochEvent{
			Rank:        c.rank,
			Epoch:       epoch,
			Time:        c.clock.Now(),
			Completed:   completed,
			CopiedBytes: copiedBytes,
			Invalidated: invalidated,
		})
	}
}

// publishHit copies the CACHED payload size of the indexed entry e into
// its slot record, making it what a full hit may serve.
func (c *Cache) publishHit(e *entry) {
	c.idx.Ptr(e.key).hit = int32(e.payload)
}

// Invalidate drops every cache entry (the CLAMPI_Invalidate call of the
// user-defined mode). In-flight PENDING copies of the current epoch are
// cancelled.
func (c *Cache) Invalidate() {
	// A mid-epoch invalidation must not lose same-epoch PENDING hits:
	// their destination buffers are normally filled at the epoch
	// closure from the cached copy, which is about to disappear. The
	// payload is already complete in the missing get's own destination
	// buffer (and may not be consumed before the flush anyway), so the
	// waiters are satisfied from there before the entry is dropped.
	for _, e := range c.pending {
		if e.state != statePending {
			continue
		}
		c.serveWaiters(e)
		c.retire(e)
	}
	if c.idx.Len() != 0 || c.store.Entries() != 0 {
		// The index is drained and its CACHED records retired in one
		// pass over the entries it holds; their regions are reclaimed
		// by Reset, so no per-entry FreeRegion. With nothing indexed or
		// stored — every other fence of a blanket-mode halo exchange
		// closes an epoch that fetched nothing — both are already as
		// the drain and Reset would leave them. The model charges the
		// paper's index memset all the same (costs.go).
		c.drainIndex()
		c.store.Reset()
	}
	c.charge(CostInvalidateBase + simtime.Duration(c.idx.Cap())*CostInvalidatePerSlot)
	c.pending = c.pending[:0]
	c.recycleDead()
	c.arena = c.arena[:0]
	c.stats.Invalidations++
}

// drainIndex empties the index and retires the record of every CACHED
// entry it held (a PENDING one still indexed was retired before); the
// ordered view is emptied as a whole rather than entry by entry.
func (c *Cache) drainIndex() {
	if c.view != nil {
		c.view.reset()
	}
	c.idx.Drain(func(_ cuckoo.Key, r ref) {
		if r.e.state == stateCached {
			c.retire(r.e)
		}
	})
}

// serveWaiters satisfies the same-epoch waiters of a PENDING entry about
// to be dropped, and empties its waiter queue. They are served from the
// missing get's own destination buffer, where the payload is already
// complete.
func (c *Cache) serveWaiters(e *entry) {
	n := 0
	for _, w := range e.waiters {
		copy(w.dst, e.src[:w.size])
		n += w.size
	}
	c.charge(copyCost(n))
	clearWaiters(e)
}

// newIndex builds a Cuckoo index of the given size; split out so tuning
// and construction share it.
func newIndex(slots int, seed int64) *cuckoo.Table[ref] {
	return cuckoo.New[ref](slots, seed)
}
