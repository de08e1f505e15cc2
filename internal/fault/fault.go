// Package fault is a deterministic, seed-driven fault injector for RMA
// transports, implemented as an rma.Window middleware (DESIGN.md §11).
//
// Wrap decorates any backend window; get-path operations (Get, GetBatch,
// Rget) pass through an injection decision that can drop the operation,
// time it out, corrupt or truncate its payload, add a latency spike, or
// honour a scripted per-target outage window. Everything else — puts,
// synchronization, epochs, window management — delegates untouched, so
// the decorated window composes with the caching layer, both backends,
// and any layer that only speaks the rma interfaces.
//
// Determinism is the design center: the injector draws from its own RNG
// (seeded at Wrap, one injector per window handle, i.e. per rank),
// decisions are keyed to the rank's deterministic op stream, and every
// injected delay is virtual time. A (Scenario, seed) pair therefore
// reproduces the exact fault sequence on every run, however the
// concurrent ranks are scheduled; Counts.Digest folds the sequence into one value so reruns can
// assert it.
package fault

import (
	"errors"
	"fmt"

	"math/rand"

	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// ErrShortRead reports an injected truncated delivery: a suffix of the
// destination buffer holds garbage. Matches rma.ErrTransient.
var ErrShortRead = fmt.Errorf("%w: short read", rma.ErrTransient)

// errNoAttestation reports a Checksum call on a wrapped window whose
// inner backend does not implement rma.IntegrityWindow.
var errNoAttestation = errors.New("fault: inner window does not attest checksums")

// Kind classifies one injected fault.
type Kind int

const (
	// KindNone means the op passed through clean.
	KindNone Kind = iota
	// KindDrop fails the op without issuing it.
	KindDrop
	// KindTimeout burns the scenario's timeout in virtual time, then
	// fails the op without issuing it.
	KindTimeout
	// KindCorrupt issues the op, then silently damages the delivered
	// payload (detected only by integrity verification).
	KindCorrupt
	// KindShortRead issues the op, garbles a suffix of the payload and
	// reports the truncation.
	KindShortRead
	// KindSpike issues the op after an injected extra latency.
	KindSpike
	// KindOutage fails the op because a scripted outage window covers
	// its target.
	KindOutage
	// KindNotifyDrop discards one delivered notification descriptor
	// (consumers observe a sequence gap).
	KindNotifyDrop
	// KindNotifyDup delivers one notification descriptor twice.
	KindNotifyDup
	// KindNotifyReorder swaps one notification with its successor.
	KindNotifyReorder
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindDrop:
		return "drop"
	case KindTimeout:
		return "timeout"
	case KindCorrupt:
		return "corrupt"
	case KindShortRead:
		return "short-read"
	case KindSpike:
		return "spike"
	case KindOutage:
		return "outage"
	case KindNotifyDrop:
		return "notify-drop"
	case KindNotifyDup:
		return "notify-dup"
	case KindNotifyReorder:
		return "notify-reorder"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Counts tallies the faults one injector delivered. Digest folds the
// ordered fault sequence — (op number, kind, target) per injected fault
// — into one FNV-1a value: two runs injected the identical sequence iff
// their digests (and Ops) match.
type Counts struct {
	Ops            int64 // get-path ops that passed the injection decision
	Drops          int64
	Timeouts       int64
	Corrupts       int64
	ShortReads     int64
	Spikes         int64
	Outages        int64
	NotifyDrops    int64
	NotifyDups     int64
	NotifyReorders int64
	Digest         uint64
}

// Total returns the number of injected faults of any kind.
func (c Counts) Total() int64 {
	return c.Drops + c.Timeouts + c.Corrupts + c.ShortReads + c.Spikes + c.Outages +
		c.NotifyDrops + c.NotifyDups + c.NotifyReorders
}

// Add returns c + o field by field, keeping XOR of the digests (order
// across injectors is not defined; XOR keeps the aggregate seed- and
// schedule-independent).
func (c Counts) Add(o Counts) Counts {
	return Counts{
		Ops:            c.Ops + o.Ops,
		Drops:          c.Drops + o.Drops,
		Timeouts:       c.Timeouts + o.Timeouts,
		Corrupts:       c.Corrupts + o.Corrupts,
		ShortReads:     c.ShortReads + o.ShortReads,
		Spikes:         c.Spikes + o.Spikes,
		Outages:        c.Outages + o.Outages,
		NotifyDrops:    c.NotifyDrops + o.NotifyDrops,
		NotifyDups:     c.NotifyDups + o.NotifyDups,
		NotifyReorders: c.NotifyReorders + o.NotifyReorders,
		Digest:         c.Digest ^ o.Digest,
	}
}

func (c Counts) String() string {
	return fmt.Sprintf("ops=%d drops=%d timeouts=%d corrupts=%d short=%d spikes=%d outages=%d ndrops=%d ndups=%d nreorders=%d",
		c.Ops, c.Drops, c.Timeouts, c.Corrupts, c.ShortReads, c.Spikes, c.Outages,
		c.NotifyDrops, c.NotifyDups, c.NotifyReorders)
}

// Window is the fault-injecting decorator. It implements rma.Window,
// rma.BatchWindow and rma.IntegrityWindow; batch and integrity calls
// degrade gracefully when the inner backend lacks the extension
// (per-op issue, attestation error). All methods must be called from the
// owning rank's goroutine, exactly as with the inner window.
type Window struct {
	inner rma.Window
	bw    rma.BatchWindow     // inner batch extension, nil if absent
	iw    rma.IntegrityWindow // inner integrity extension, nil if absent
	nw    rma.NotifyWindow    // inner notification extension, nil if absent
	clock *simtime.Clock
	sc    Scenario
	rng   *rand.Rand

	// cumulative decision thresholds (precomputed from the rates)
	thDrop, thTimeout, thCorrupt, thShort, thSpike float64

	ops    int64
	counts Counts

	// npending holds faulted notifications (duplicates) that did not fit
	// the caller's poll buffer; delivered first by the next poll.
	npending []notify.Notification
}

// Wrap decorates win with the scenario's fault injection, drawing all
// randomness from a RNG seeded with seed. Wrap each rank's window with a
// distinct seed (e.g. base+rankID) so ranks fail independently while the
// whole fleet stays reproducible.
func Wrap(win rma.Window, sc Scenario, seed int64) *Window {
	w := &Window{
		inner: win,
		clock: win.Endpoint().Clock(),
		sc:    sc,
		rng:   rand.New(rand.NewSource(seed)),
	}
	w.bw, _ = win.(rma.BatchWindow)
	w.iw, _ = win.(rma.IntegrityWindow)
	w.nw, _ = win.(rma.NotifyWindow)
	w.thDrop = sc.DropRate
	w.thTimeout = w.thDrop + sc.TimeoutRate
	w.thCorrupt = w.thTimeout + sc.CorruptRate
	w.thShort = w.thCorrupt + sc.ShortReadRate
	w.thSpike = w.thShort + sc.SpikeRate
	return w
}

// Inner returns the decorated window.
func (w *Window) Inner() rma.Window { return w.inner }

// Counts returns the faults injected so far.
func (w *Window) Counts() Counts { return w.counts }

// Scenario returns the scenario in effect.
func (w *Window) Scenario() Scenario { return w.sc }

// targetSelected reports whether the scenario injects towards target.
func (w *Window) targetSelected(target int) bool {
	if len(w.sc.Targets) == 0 {
		return true
	}
	for _, t := range w.sc.Targets {
		if t == target {
			return true
		}
	}
	return false
}

// decide runs the injection decision for one get-path op towards target
// and returns the fault to apply. Zero-size transfers never reach it
// (nothing to damage, nothing worth dropping deterministically).
func (w *Window) decide(target int) Kind {
	w.ops++
	w.counts.Ops++
	op := w.ops
	if !w.targetSelected(target) {
		return KindNone
	}
	now := w.clock.Now()
	if op <= w.sc.AfterOps || now < w.sc.AfterTime {
		return KindNone
	}
	for i := range w.sc.Outages {
		if w.sc.Outages[i].active(target, op, now) {
			return w.record(KindOutage, op, target)
		}
	}
	if w.thSpike <= 0 {
		return KindNone
	}
	r := w.rng.Float64()
	switch {
	case r < w.thDrop:
		return w.record(KindDrop, op, target)
	case r < w.thTimeout:
		return w.record(KindTimeout, op, target)
	case r < w.thCorrupt:
		return w.record(KindCorrupt, op, target)
	case r < w.thShort:
		return w.record(KindShortRead, op, target)
	case r < w.thSpike:
		return w.record(KindSpike, op, target)
	}
	return KindNone
}

// record tallies one injected fault and folds it into the digest.
func (w *Window) record(k Kind, op int64, target int) Kind {
	switch k {
	case KindDrop:
		w.counts.Drops++
	case KindTimeout:
		w.counts.Timeouts++
	case KindCorrupt:
		w.counts.Corrupts++
	case KindShortRead:
		w.counts.ShortReads++
	case KindSpike:
		w.counts.Spikes++
	case KindOutage:
		w.counts.Outages++
	case KindNotifyDrop:
		w.counts.NotifyDrops++
	case KindNotifyDup:
		w.counts.NotifyDups++
	case KindNotifyReorder:
		w.counts.NotifyReorders++
	}
	const prime64 = 1099511628211
	h := w.counts.Digest
	if h == 0 {
		h = 14695981039346656037
	}
	for _, v := range [3]uint64{uint64(op), uint64(k), uint64(target)} {
		h ^= v
		h *= prime64
	}
	w.counts.Digest = h
	return k
}

// corrupt deterministically flips 1–3 payload bytes.
func (w *Window) corrupt(buf []byte) {
	n := 1 + w.rng.Intn(3)
	for i := 0; i < n; i++ {
		buf[w.rng.Intn(len(buf))] ^= 0xA5
	}
}

// garbleTail damages the second half of a short read's payload.
func garbleTail(buf []byte) {
	for i := len(buf) / 2; i < len(buf); i++ {
		buf[i] ^= 0xFF
	}
}

// Get injects into the contiguous read path (rma.Window).
func (w *Window) Get(dst []byte, dtype datatype.Datatype, count int, target, disp int) error {
	size := datatype.TransferSize(dtype, count)
	if size == 0 {
		return w.inner.Get(dst, dtype, count, target, disp)
	}
	switch w.decide(target) {
	case KindDrop, KindOutage:
		return rma.ErrTransient
	case KindTimeout:
		w.clock.Advance(w.sc.timeout())
		return rma.ErrTimeout
	case KindSpike:
		w.clock.Advance(w.sc.spike())
		return w.inner.Get(dst, dtype, count, target, disp)
	case KindCorrupt:
		if err := w.inner.Get(dst, dtype, count, target, disp); err != nil {
			return err
		}
		w.corrupt(dst[:size]) //clampi:epoch injector damages the payload the simulated transport materialized at issue time
		return nil            // silent: only integrity verification catches it
	case KindShortRead:
		if err := w.inner.Get(dst, dtype, count, target, disp); err != nil {
			return err
		}
		garbleTail(dst[:size]) //clampi:epoch injector damages the payload the simulated transport materialized at issue time
		return ErrShortRead
	}
	return w.inner.Get(dst, dtype, count, target, disp)
}

// GetBatch issues each op through the injected Get path, wrapping the
// first failure in a *rma.BatchError so callers can resume after the
// delivered prefix (rma.BatchWindow). The injector always issues per-op
// — each op is one coalesced network message for the layers above, and
// per-op issue is what gives every op its own injection decision.
func (w *Window) GetBatch(ops []rma.GetOp) error {
	for i := range ops {
		op := &ops[i]
		if err := w.Get(op.Dst, datatype.Byte, len(op.Dst), op.Target, op.Disp); err != nil {
			return &rma.BatchError{Op: i, Err: err}
		}
	}
	return nil
}

// failedRequest is the request handle of an injected Rget failure: the
// error surfaces at Wait (completion time), as it would on a real
// network. An injected timeout additionally burns the scenario's timeout
// at the Wait.
type failedRequest struct {
	clock *simtime.Clock
	delay simtime.Duration
	err   error
	done  bool
}

// Wait implements rma.Request.
func (r *failedRequest) Wait() error {
	if r.done {
		return rma.ErrDoneRequest
	}
	r.done = true
	if r.delay > 0 {
		r.clock.Advance(r.delay)
	}
	return r.err
}

// Test implements rma.Request: a failed op is complete by definition.
func (r *failedRequest) Test() bool { return true }

// Rget injects into the request-based read path. Drop, outage and
// short-read faults return a request whose Wait reports the failure;
// timeout faults additionally burn the timeout at the Wait. Corruption
// and spikes behave as in Get.
func (w *Window) Rget(dst []byte, dtype datatype.Datatype, count int, target, disp int) (rma.Request, error) {
	size := datatype.TransferSize(dtype, count)
	if size == 0 {
		return w.inner.Rget(dst, dtype, count, target, disp)
	}
	switch w.decide(target) {
	case KindDrop, KindOutage, KindShortRead:
		return &failedRequest{clock: w.clock, err: rma.ErrTransient}, nil
	case KindTimeout:
		return &failedRequest{clock: w.clock, delay: w.sc.timeout(), err: rma.ErrTimeout}, nil
	case KindSpike:
		w.clock.Advance(w.sc.spike())
		return w.inner.Rget(dst, dtype, count, target, disp)
	case KindCorrupt:
		req, err := w.inner.Rget(dst, dtype, count, target, disp)
		if err == nil {
			w.corrupt(dst[:size]) //clampi:epoch injector damages the payload the simulated transport materialized at issue time
		}
		return req, err
	}
	return w.inner.Rget(dst, dtype, count, target, disp)
}

// Checksum passes the attestation through un-faulted (rma.IntegrityWindow):
// the integrity channel is the reliable control plane corruption
// detection depends on.
func (w *Window) Checksum(target, disp, size int) (uint64, error) {
	if w.iw == nil {
		return 0, errNoAttestation
	}
	return w.iw.Checksum(target, disp, size)
}

// --- pure delegation below: the injector never perturbs writes,
// synchronization, or window management. ---

// Endpoint implements rma.Window.
func (w *Window) Endpoint() rma.Endpoint { return w.inner.Endpoint() }

// Info implements rma.Window.
func (w *Window) Info() rma.Info { return w.inner.Info() }

// Local implements rma.Window.
func (w *Window) Local() []byte { return w.inner.Local() }

// RegionSize implements rma.Window.
func (w *Window) RegionSize(target int) (int, error) { return w.inner.RegionSize(target) }

// Epoch implements rma.Window.
func (w *Window) Epoch() int64 { return w.inner.Epoch() }

// AddEpochListener implements rma.Window.
func (w *Window) AddEpochListener(f rma.EpochListener) { w.inner.AddEpochListener(f) }

// Put implements rma.Window.
func (w *Window) Put(src []byte, dtype datatype.Datatype, count int, target, disp int) error {
	return w.inner.Put(src, dtype, count, target, disp)
}

// Rput implements rma.Window.
func (w *Window) Rput(src []byte, dtype datatype.Datatype, count int, target, disp int) (rma.Request, error) {
	return w.inner.Rput(src, dtype, count, target, disp)
}

// Accumulate implements rma.Window.
func (w *Window) Accumulate(src []byte, dtype datatype.Datatype, count int, target, disp int, op rma.Op) error {
	return w.inner.Accumulate(src, dtype, count, target, disp, op)
}

// Lock implements rma.Window.
func (w *Window) Lock(target int) error { return w.inner.Lock(target) }

// LockWithType implements rma.Window.
func (w *Window) LockWithType(typ rma.LockType, target int) error {
	return w.inner.LockWithType(typ, target)
}

// LockAll implements rma.Window.
func (w *Window) LockAll() error { return w.inner.LockAll() }

// Unlock implements rma.Window.
func (w *Window) Unlock(target int) error { return w.inner.Unlock(target) }

// UnlockAll implements rma.Window.
func (w *Window) UnlockAll() error { return w.inner.UnlockAll() }

// Flush implements rma.Window.
func (w *Window) Flush(target int) error { return w.inner.Flush(target) }

// FlushAll implements rma.Window.
func (w *Window) FlushAll() error { return w.inner.FlushAll() }

// Fence implements rma.Window.
func (w *Window) Fence() error { return w.inner.Fence() }

// Post implements rma.Window.
func (w *Window) Post(origins []int) error { return w.inner.Post(origins) }

// Start implements rma.Window.
func (w *Window) Start(targets []int) error { return w.inner.Start(targets) }

// Complete implements rma.Window.
func (w *Window) Complete() error { return w.inner.Complete() }

// Wait implements rma.Window.
func (w *Window) Wait() error { return w.inner.Wait() }

// Free implements rma.Window.
func (w *Window) Free() error { return w.inner.Free() }

// Compile-time checks: the decorator speaks the full transport contract.
var (
	_ rma.Window          = (*Window)(nil)
	_ rma.BatchWindow     = (*Window)(nil)
	_ rma.IntegrityWindow = (*Window)(nil)
	_ rma.Request         = (*failedRequest)(nil)
)
