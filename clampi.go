package clampi

import (
	"time"

	"clampi/internal/core"
	"clampi/internal/datatype"
	"clampi/internal/fault"
	"clampi/internal/mpi"
	"clampi/internal/netsim"
	"clampi/internal/notify"
	"clampi/internal/obsv"
	"clampi/internal/rma"
	"clampi/internal/simtime"
	"clampi/internal/wire"
)

// Sentinel errors returned by window operations, for errors.Is tests.
// ErrOutOfRange covers both bad target ranks and accesses outside the
// target's window region; the transport layer returns finer-grained
// values that all match it.
var (
	// ErrFreed reports an operation on a freed window.
	ErrFreed = rma.ErrFreed
	// ErrOutOfRange reports an access addressed outside the world or
	// the target's window region.
	ErrOutOfRange = rma.ErrOutOfRange
	// ErrNoEpoch reports an RMA call outside an access epoch (e.g. a
	// Get before Lock/Fence).
	ErrNoEpoch = rma.ErrNoEpoch
	// ErrNoNotify reports a PutNotify on a window whose backend does not
	// implement the notified-RMA extension (rma.NotifyWindow).
	ErrNoNotify = core.ErrNoNotify
)

// Re-exported runtime types. The transport-agnostic vocabulary (Info,
// Op, LockType, RMA, Endpoint) anchors on internal/rma — it means the
// same thing over the simulated runtime and over a socket connection.
// Rank and RunConfig belong to the simulated path (Run); the
// wire path constructs windows with Dial instead.
type (
	// Rank is one simulated MPI process; see Run (the simulated path).
	Rank = mpi.Rank
	// Win is a raw (non-caching) simulated-MPI window.
	//
	// Deprecated: the concrete simulated window type is an
	// implementation detail. Hold windows as RMA (the transport-agnostic
	// interface) — Create/Allocate/Wrap and Dial all speak it — so code
	// is indifferent to whether the bytes live in a simulated region or
	// behind a clampi-serve daemon.
	Win = mpi.Win
	// Info carries window-creation hints (MPI_Info); both backends read
	// the CLaMPI mode from its InfoKey entry.
	Info = rma.Info
	// RunConfig selects the simulated machine (network model, rank
	// placement) for Run.
	RunConfig = mpi.Config
	// NetModel is the interconnect latency model.
	NetModel = netsim.Model
	// Duration is a virtual duration (nanoseconds).
	Duration = simtime.Duration
	// Op is an accumulate reduction operator.
	Op = rma.Op
	// LockType selects shared or exclusive passive-target locks.
	LockType = rma.LockType
	// RMA is the transport-agnostic window interface every backend
	// implements: *Win is the simulated-MPI implementation, *wire.Window
	// (returned inside Dial) the socket one.
	RMA = rma.Window
	// Endpoint is a rank's attachment to the transport.
	Endpoint = rma.Endpoint
	// NotifyWindow is the optional notified-RMA extension of RMA: both
	// backends implement it, and WithNotify/PutNotify build on it.
	// Probe with a type assertion when holding a bare RMA.
	NotifyWindow = rma.NotifyWindow
	// Notification is one delivered write descriptor (advanced use:
	// draining a raw window's queue directly via NotifyWindow).
	Notification = notify.Notification
)

// Accumulate operators (MPI_REPLACE, MPI_SUM, MPI_MAX, MPI_MIN).
const (
	OpReplace = mpi.OpReplace
	OpSum     = mpi.OpSum
	OpMax     = mpi.OpMax
	OpMin     = mpi.OpMin
)

// Passive-target lock types (MPI_LOCK_SHARED, MPI_LOCK_EXCLUSIVE).
const (
	LockShared    = mpi.LockShared
	LockExclusive = mpi.LockExclusive
)

// Run launches an SPMD program on size simulated ranks and waits for all
// of them (the moral equivalent of mpirun). The ranks run concurrently;
// their virtual clocks advance by modelled costs only.
func Run(size int, cfg RunConfig, program func(*Rank) error) error {
	return mpi.Run(size, cfg, program)
}

// DefaultNetModel returns the network model calibrated to the paper's
// Piz Daint (Cray Aries) measurements.
func DefaultNetModel() *NetModel { return netsim.DefaultModel() }

// Datatype is the element type of a transfer: one of Byte, Int32, Int64
// and Double. Every transfer is dense: count elements from one contiguous
// target range.
type Datatype = datatype.Datatype

// The element types.
var (
	Byte   = datatype.Byte
	Int32  = datatype.Int32
	Int64  = datatype.Int64
	Double = datatype.Double
)

// Caching-layer types re-exported from the core.
type (
	// Stats aggregates the caching counters of the paper's figures.
	Stats = core.Stats
	// Access describes the classification and cost of one get.
	Access = core.Access
	// AccessType classifies a get (hitting/direct/conflicting/...).
	AccessType = core.AccessType
	// Mode is the operational mode of a caching-enabled window.
	Mode = core.Mode
	// EvictionScheme selects the victim-scoring function.
	EvictionScheme = core.EvictionScheme
	// Params is the full low-level parameter set (advanced use).
	Params = core.Params
	// DistanceStats aggregates per-distance-class cache activity
	// (locality-aware windows only; see Window.DistanceStats).
	DistanceStats = core.DistanceStats
)

// Operational modes (paper §III-A).
const (
	Transparent = core.Transparent
	AlwaysCache = core.AlwaysCache
)

// Access types (paper §III-B).
const (
	AccessHit         = core.AccessHit
	AccessDirect      = core.AccessDirect
	AccessConflicting = core.AccessConflicting
	AccessCapacity    = core.AccessCapacity
	AccessFailing     = core.AccessFailing
)

// Eviction schemes (paper §III-D1).
const (
	SchemeFull       = core.SchemeFull
	SchemeTemporal   = core.SchemeTemporal
	SchemePositional = core.SchemePositional
)

// InfoKey is the MPI_Info key read at window creation to select the
// operational mode ("always-cache" or "transparent").
const InfoKey = core.InfoKey

// Observability layer (DESIGN.md §8): the caching core emits structured
// events to an installed Observer; internal/obsv provides a ready-made
// implementation (Collector) that turns them into a metrics registry and
// a bounded trace ring, with Prometheus/JSON exporters. A window without
// an observer pays a single nil-check per access.
type (
	// Observer receives the structured events of a caching window.
	// An implementation shared by several windows must be safe for
	// concurrent use: the ranks of a Run execute concurrently.
	Observer = core.Observer
	// AccessEvent describes one classified Get.
	AccessEvent = core.AccessEvent
	// EvictionEvent describes one evicted cache entry.
	EvictionEvent = core.EvictionEvent
	// AdjustmentEvent describes one adaptive parameter change.
	AdjustmentEvent = core.AdjustmentEvent
	// EpochEvent describes one epoch closure.
	EpochEvent = core.EpochEvent

	// Registry holds named metrics (atomic counters, gauges and
	// log2-bucketed virtual-time histograms) keyed by name+labels.
	Registry = obsv.Registry
	// Ring is a bounded ring buffer of trace events.
	Ring = obsv.Ring
	// Collector is the canonical Observer: it translates events into
	// Registry metrics and, optionally, Ring trace events.
	Collector = obsv.Collector
	// Label is one name=value dimension of a metric.
	Label = obsv.Label
	// TraceEvent is one flattened, JSON-serializable trace event.
	TraceEvent = obsv.Event
)

// Observability constructors and exporters (see internal/obsv).
var (
	// NewRegistry returns an empty metrics registry.
	NewRegistry = obsv.NewRegistry
	// NewRing returns a tracer retaining the newest capacity events.
	NewRing = obsv.NewRing
	// NewCollector wires a registry (required) and a trace ring
	// (optional, nil disables tracing) into an Observer.
	NewCollector = obsv.NewCollector
	// L is shorthand for constructing a Label.
	L = obsv.L
	// WritePrometheus renders a registry in the Prometheus text
	// exposition format.
	WritePrometheus = obsv.WritePrometheus
	// WriteJSON renders a registry as one stable JSON document.
	WriteJSON = obsv.WriteJSON
	// WriteTrace renders a ring's retained events as JSON lines.
	WriteTrace = obsv.WriteTrace
	// WriteMetricsFile writes a registry to a file: JSON when the path
	// ends in .json, Prometheus text format otherwise.
	WriteMetricsFile = obsv.WriteMetricsFile
	// WriteTraceFile writes a ring's retained events to a file as JSON
	// lines.
	WriteTraceFile = obsv.WriteTraceFile
	// PublishStats exports a Stats snapshot into a registry as gauges.
	PublishStats = obsv.PublishStats
)

// Resilience and fault injection (DESIGN.md §11): the transient sentinel
// family, the retry/breaker policies of the resilient fill path, and the
// deterministic seed-driven fault injector for chaos runs.
var (
	// ErrTransient is the umbrella sentinel for recoverable transport
	// failures: an operation that failed with it may succeed if retried.
	ErrTransient = rma.ErrTransient
	// ErrTimeout reports a transient per-operation timeout.
	ErrTimeout = rma.ErrTimeout
	// ErrCorrupt reports a payload rejected by integrity verification.
	ErrCorrupt = rma.ErrCorrupt
)

type (
	// RetryPolicy bounds how the caching layer re-issues transient
	// remote-get failures (exponential backoff with deterministic jitter,
	// all in virtual time).
	RetryPolicy = rma.RetryPolicy
	// BreakerPolicy configures the per-target circuit breaker.
	BreakerPolicy = core.BreakerPolicy
	// FaultScenario scripts one reproducible chaos run (fault rates,
	// triggers, scripted outages).
	FaultScenario = fault.Scenario
	// FaultOutage is one scripted per-target blackout window.
	FaultOutage = fault.Outage
	// FaultCounts tallies the faults one injector delivered; its Digest
	// identifies the exact injected sequence.
	FaultCounts = fault.Counts
	// FaultyWindow is the fault-injecting window decorator returned by
	// InjectFaults.
	FaultyWindow = fault.Window
)

// Resilience policy constructors and fault-injection helpers.
var (
	// DefaultRetryPolicy returns the retry policy the drivers use.
	DefaultRetryPolicy = rma.DefaultRetryPolicy
	// DefaultBreakerPolicy returns the breaker policy the drivers use.
	DefaultBreakerPolicy = core.DefaultBreakerPolicy
	// LoadFaultScenario reads a scenario from a JSON file.
	LoadFaultScenario = fault.LoadScenario
	// FaultScenarios returns the canned chaos scenario suite.
	FaultScenarios = fault.Canned
)

// InjectFaults decorates a window with seed-driven fault injection: the
// returned window fails, delays, truncates or corrupts gets according to
// the scenario, deterministically from the seed. Wrap the result with
// Wrap to run the caching layer under chaos. Give each rank's window a
// distinct seed (e.g. base+rank) so ranks fail independently while the
// fleet stays reproducible.
func InjectFaults(win RMA, sc FaultScenario, seed int64) *FaultyWindow {
	return fault.Wrap(win, sc, seed)
}

// config gathers everything the construction surface can set: the
// caching parameters (shared by every backend) and, for the wire
// transport, the dial settings. One option vocabulary serves Wrap,
// Create, Allocate and Dial — the caching options mean exactly the same
// thing over a simulated window and over a socket.
type config struct {
	params Params
	dial   wire.DialConfig
}

func applyOptions(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Option configures window construction (Wrap/Create/Allocate/Dial).
// Caching options apply on every backend; transport options (WithRank,
// WithWorld, WithPoolSize, ...) configure the wire connection and are
// ignored by the simulated constructors.
type Option func(*config)

// WithMode selects the operational mode.
func WithMode(m Mode) Option { return func(c *config) { c.params.Mode = m } }

// WithIndexSlots sets the initial index size |I_w| (hash-table slots).
func WithIndexSlots(n int) Option { return func(c *config) { c.params.IndexSlots = n } }

// WithStorageBytes sets the initial cache buffer size |S_w|.
func WithStorageBytes(n int) Option { return func(c *config) { c.params.StorageBytes = n } }

// WithScheme selects the eviction-scoring scheme.
func WithScheme(s EvictionScheme) Option { return func(c *config) { c.params.Scheme = s } }

// WithAdaptive enables runtime parameter tuning (paper §III-E1).
func WithAdaptive() Option { return func(c *config) { c.params.Adaptive = true } }

// WithSampleSize sets M, the eviction sample size (paper §III-D).
func WithSampleSize(m int) Option { return func(c *config) { c.params.SampleSize = m } }

// WithSeed fixes the RNG seed of hashing and eviction sampling.
func WithSeed(s int64) Option { return func(c *config) { c.params.Seed = s } }

// WithObserver installs an observer receiving the window's structured
// cache events (accesses, evictions, adjustments, epoch closures).
// Install a *Collector to feed a metrics Registry and trace Ring; any
// Observer implementation works. A nil observer disables emission.
func WithObserver(o Observer) Option { return func(c *config) { c.params.Observer = o } }

// WithParams replaces the whole caching parameter set (advanced use);
// options listed after it still apply on top.
func WithParams(params Params) Option { return func(c *config) { c.params = params } }

// WithRetry makes the caching layer retry transient remote-get failures
// under the given policy (DESIGN.md §11). Backoffs advance the rank's
// virtual clock, so retried runs stay deterministic. Over the wire
// transport, a positive pol.Deadline is additionally propagated to the
// socket as a per-attempt I/O deadline (rma.DeadlineWindow), so a hung
// read surfaces as ErrTimeout instead of blocking past the budget.
func WithRetry(pol RetryPolicy) Option {
	return func(c *config) { cp := pol; c.params.Retry = &cp }
}

// WithBreaker arms the per-target circuit breaker: after enough
// consecutive transient failures towards one rank, further gets to it
// fail fast for a cooldown, then half-open probes recover it.
func WithBreaker(pol BreakerPolicy) Option {
	return func(c *config) { cp := pol; c.params.Breaker = &cp }
}

// WithFillVerification checksums every remote fill against the
// backend's integrity attestation: silently corrupted payloads are
// rejected (and retried under WithRetry) instead of delivered or cached.
func WithFillVerification() Option { return func(c *config) { c.params.VerifyFills = true } }

// WithStaleWhenOpen defers the Transparent mode's epoch-closure
// invalidation while any target's circuit breaker is open, serving stale
// hits instead of alternating breaker failures with cold misses — legal
// under the paper's §II weak-consistency contract. Requires WithBreaker;
// the deferred invalidation runs at the first closure with all breakers
// closed.
func WithStaleWhenOpen() Option { return func(c *config) { c.params.ServeStale = true } }

// WithLocalityAwareness makes the caching layer cost-aware (DESIGN.md
// §15) on backends that report per-target distance (the simulated
// runtime's placement model, the wire transport's measured RTT): cheap
// same-socket fills bypass admission, the eviction victim score is
// weighted by refill cost, and retry backoffs and breaker cooldowns
// scale with the target's distance class. Ignored on backends without
// locality information.
func WithLocalityAwareness() Option {
	return func(c *config) { c.params.LocalityAware = true }
}

// WithNotify subscribes the caching layer to the backend's notified-RMA
// extension (DESIGN.md §16): remote PutNotify writes deliver bounded
// descriptors that the cache drains at access time and epoch closure to
// invalidate — or patch in place — only the affected spans, so a
// Transparent-mode window keeps its cache across epoch boundaries
// instead of dropping everything at every closure. Queue overflow and
// out-of-order delivery degrade conservatively to blanket invalidation,
// never to stale data. Construction fails if the backend does not
// implement rma.NotifyWindow. queueCap bounds the per-rank descriptor
// queue; <= 0 selects the backend default.
func WithNotify(queueCap int) Option {
	return func(c *config) {
		c.params.NotifyTargeted = true
		c.params.NotifyQueueCap = queueCap
	}
}

// WithWriteBack switches Put/PutNotify from write-through to write-back:
// contiguous writes are staged as dirty spans and flushed — sorted,
// adjacent runs coalesced into one message — at epoch closure or under
// staging pressure. Reads of a dirty span flush it first, so a rank
// always sees its own writes.
func WithWriteBack() Option { return func(c *config) { c.params.WriteBack = true } }

// Transport options (Dial only).

// WithTransport selects the socket family for Dial: "tcp" (default) or
// "unix".
func WithTransport(network string) Option {
	return func(c *config) { c.dial.Network = network }
}

// WithWindowName selects which of the daemon's windows to attach to;
// unset selects the daemon's default (first) window.
func WithWindowName(name string) Option {
	return func(c *config) { c.dial.Window = name }
}

// WithRank requests a specific rank identity from the daemon; unset (or
// RankAuto) lets the daemon assign the next free one.
func WithRank(rank int) Option {
	return func(c *config) { c.dial.Rank = rank }
}

// WithWorld declares how many client processes participate in the
// window's world — the population Fence rendezvouses. All clients (or
// the daemon's config) must agree.
func WithWorld(n int) Option {
	return func(c *config) { c.dial.World = n }
}

// WithPoolSize caps the idle socket connections kept for reuse.
func WithPoolSize(n int) Option {
	return func(c *config) { c.dial.PoolSize = n }
}

// WithDialTimeout bounds connection establishment and the handshake.
func WithDialTimeout(d time.Duration) Option {
	return func(c *config) { c.dial.DialTimeout = d }
}

// Window is a caching-enabled RMA window: the public handle combining a
// raw window with its CLaMPI layer. All RMA and synchronization calls of
// the underlying window are available; Get is transparently cached.
type Window struct {
	win   rma.Window
	cache *core.Cache
}

// Wrap attaches a caching layer to an existing window — any rma.Window
// implementation, simulated or wire. The window's InfoKey entry, if
// present, overrides the mode selected by options.
func Wrap(win RMA, opts ...Option) (*Window, error) {
	cfg := applyOptions(opts)
	c, err := core.New(win, cfg.params)
	if err != nil {
		return nil, err
	}
	return &Window{win: win, cache: c}, nil
}

// Dial connects to a clampi-serve daemon at addr (host:port for tcp, a
// socket path with WithTransport("unix")) and returns a caching window
// over the connection — the same Window type, same options, same
// semantics as the simulated constructors; only the transport differs.
// The daemon hosts the region bytes; this process caches them.
//
//	w, err := clampi.Dial("127.0.0.1:9021",
//	        clampi.WithMode(clampi.AlwaysCache),
//	        clampi.WithRetry(clampi.DefaultRetryPolicy()))
//
// Free releases the connections.
func Dial(addr string, opts ...Option) (*Window, error) {
	cfg := applyOptions(opts)
	cfg.dial.Addr = addr
	win, err := wire.Open(cfg.dial, nil)
	if err != nil {
		return nil, err
	}
	c, err := core.New(win, cfg.params)
	if err != nil {
		win.Free()
		return nil, err
	}
	return &Window{win: win, cache: c}, nil
}

// Serve starts a clampi-serve daemon in-process: it binds
// cfg.Network/cfg.Addr and exposes cfg.Windows to wire clients until
// Shutdown. cmd/clampi-serve is a flag-parsing shell around this call.
func Serve(cfg ServeConfig) (*Server, error) { return wire.Serve(cfg) }

// Wire-transport server types (see internal/wire and cmd/clampi-serve).
type (
	// ServeConfig configures Serve: listen address, exposed windows,
	// world size, metrics registry.
	ServeConfig = wire.ServeConfig
	// Server is a running daemon; stop it with Shutdown.
	Server = wire.Server
	// WindowSpec is one window a Server exposes: a name and its regions.
	WindowSpec = wire.WindowSpec
)

// MakeRegions builds n zero-filled regions of size bytes each — the
// symmetric-window shape for ServeConfig.Windows.
var MakeRegions = wire.MakeRegions

// RankAuto (as WithRank's argument) requests daemon-assigned rank
// identity.
const RankAuto = wire.RankAuto

// Create is a convenience constructor for the simulated path:
// collectively creates a window exposing region and wraps it.
// Equivalent to r.WinCreate + Wrap.
func Create(r *Rank, region []byte, info Info, opts ...Option) (*Window, error) {
	return Wrap(r.WinCreate(region, info), opts...)
}

// Allocate collectively creates a window of size bytes per rank and wraps
// it, returning the caching window and the local region.
func Allocate(r *Rank, size int, info Info, opts ...Option) (*Window, []byte, error) {
	win, local := r.WinAllocate(size, info)
	w, err := Wrap(win, opts...)
	if err != nil {
		return nil, nil, err
	}
	return w, local, nil
}

// Get reads count elements of dtype from target's region at byte
// displacement disp into dst, serving from the cache when possible. As
// with MPI_Get, dst is valid only after the next Flush/Unlock.
func (w *Window) Get(dst []byte, dtype Datatype, count, target, disp int) error {
	return w.cache.Get(dst, dtype, count, target, disp)
}

// GetBytes is shorthand for Get with a contiguous byte range.
func (w *Window) GetBytes(dst []byte, target, disp int) error {
	return w.cache.Get(dst, Byte, len(dst), target, disp)
}

// GetOp is one operation of a batched get: len(Dst) bytes at byte
// displacement Disp of Target's region; see GetBatch.
type GetOp = rma.GetOp

// GetBatch issues many gets in one call with the semantics of individual
// Get calls (destinations valid after the next Flush/Unlock). Hits are
// served locally; the remaining misses are sorted per target and
// adjacent or overlapping ranges are coalesced into one remote message
// each, so a batch of k neighbouring misses pays one message overhead
// instead of k.
func (w *Window) GetBatch(ops []GetOp) error { return w.cache.GetBatch(ops) }

// GetUncached bypasses the caching layer for one operation — the "special
// get call" extension the paper sketches in §III-A as an alternative to
// the two-window idiom. The fetched data neither hits nor populates the
// cache.
func (w *Window) GetUncached(dst []byte, dtype Datatype, count, target, disp int) error {
	return w.win.Get(dst, dtype, count, target, disp)
}

// Put writes src to target's region. By default it writes through; with
// WithWriteBack the span is staged dirty and flushed coalesced at epoch
// closure. Cached entries of this origin that lie inside the write
// are patched in place (Stats.WriteHits); every other entry overlapping
// the written range is invalidated, so a process never reads its own
// stale writes back through the cache. Writes by *other*
// processes are the application's responsibility unless the window uses
// notified writes (see PutNotify and WithNotify).
func (w *Window) Put(src []byte, dtype Datatype, count, target, disp int) error {
	return w.cache.Put(src, dtype, count, target, disp)
}

// PutNotify is Put plus a notification (DESIGN.md §16): the backend
// delivers a bounded descriptor of the written span — tagged with tag —
// to every other rank, and ranks that subscribed with WithNotify drain
// those descriptors to invalidate or patch exactly the affected cached
// spans instead of dropping their whole cache at the next epoch
// closure. Requires a backend implementing rma.NotifyWindow
// (ErrNoNotify otherwise).
func (w *Window) PutNotify(src []byte, dtype Datatype, count, target, disp int, tag uint32) error {
	return w.cache.PutNotify(src, dtype, count, target, disp, tag)
}

// NotifyQueueDepth returns the number of delivered but not yet drained
// notification descriptors (0 when not subscribed) — the queue-depth
// gauge behind the obsv metric.
func (w *Window) NotifyQueueDepth() int { return w.cache.NotifyQueueDepth() }

// InvalidateRange drops cached entries of target overlapping the byte
// range [disp, disp+size), returning how many were dropped. Useful when
// the application knows a remote region changed (e.g. after a
// notification) without invalidating the whole cache.
func (w *Window) InvalidateRange(target, disp, size int) int {
	return w.cache.InvalidateRange(target, disp, size)
}

// Prefetch warms the cache with a remote range without delivering data to
// the application; a later Get of the range (in a subsequent epoch) is a
// pure local hit. Extension beyond the paper.
func (w *Window) Prefetch(target, disp, size int) error {
	return w.cache.Prefetch(target, disp, size)
}

// Lock opens a passive-target epoch towards target with a shared lock.
func (w *Window) Lock(target int) error { return w.win.Lock(target) }

// LockWithType opens a passive-target epoch with an explicit lock type;
// LockExclusive blocks until all other holders of the target release.
func (w *Window) LockWithType(typ LockType, target int) error {
	return w.win.LockWithType(typ, target)
}

// LockAll opens a passive-target epoch towards all ranks.
func (w *Window) LockAll() error { return w.win.LockAll() }

// Flush completes outstanding operations towards target and closes the
// current access epoch (gets issued before it become valid).
func (w *Window) Flush(target int) error { return w.win.Flush(target) }

// FlushAll completes all outstanding operations and closes the epoch.
func (w *Window) FlushAll() error { return w.win.FlushAll() }

// Unlock completes operations towards target and ends the epoch.
func (w *Window) Unlock(target int) error { return w.win.Unlock(target) }

// UnlockAll ends a lock-all epoch.
func (w *Window) UnlockAll() error { return w.win.UnlockAll() }

// Fence is the active-target collective synchronization.
func (w *Window) Fence() error { return w.win.Fence() }

// Accumulate combines src into target's region with op (MPI_Accumulate).
// Like Put, it invalidates the origin-local cached entries overlapping
// the written range before writing.
func (w *Window) Accumulate(src []byte, dtype Datatype, count, target, disp int, op Op) error {
	w.cache.InvalidateRange(target, disp, datatype.TransferSize(dtype, count))
	return w.win.Accumulate(src, dtype, count, target, disp, op)
}

// Free collectively releases the window.
func (w *Window) Free() error { return w.win.Free() }

// Invalidate drops all cache entries (the CLAMPI_Invalidate call of the
// paper's user-defined mode).
func (w *Window) Invalidate() { w.cache.Invalidate() }

// Stats returns a snapshot of the caching counters.
func (w *Window) Stats() Stats { return w.cache.Stats() }

// DistanceStats returns the per-distance-class breakdown of this
// window's cache activity — empty unless the backend reports locality
// (see WithLocalityAwareness). Index with rma-style distance classes 0
// (same process) through 4 (other group).
func (w *Window) DistanceStats() []DistanceStats { return w.cache.DistanceStats() }

// LastAccess returns the classification of the most recent Get.
func (w *Window) LastAccess() Access { return w.cache.LastAccess() }

// Mode returns the operational mode in effect.
func (w *Window) Mode() Mode { return w.cache.Mode() }

// IndexSlots returns the current |I_w|.
func (w *Window) IndexSlots() int { return w.cache.IndexSlots() }

// StorageBytes returns the current |S_w|.
func (w *Window) StorageBytes() int { return w.cache.StorageBytes() }

// Occupancy returns the fraction of the cache buffer holding entries.
func (w *Window) Occupancy() float64 { return w.cache.Occupancy() }

// CachedEntries returns the number of entries currently cached.
func (w *Window) CachedEntries() int { return w.cache.CachedEntries() }

// Local returns this rank's exposed region.
func (w *Window) Local() []byte { return w.win.Local() }

// Raw returns the underlying non-caching window (gets through it bypass
// the cache — the two-window idiom of paper §III-A).
func (w *Window) Raw() RMA { return w.win }
