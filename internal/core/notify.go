package core

// Notification-driven coherence and write caching (DESIGN.md §16).
//
// The paper's transparent mode keeps a window coherent by invalidating
// the whole cache at every epoch closure — correct, but every epoch
// starts cold even when nothing was written. When the backend implements
// rma.NotifyWindow (the UNR notifiable-RMA extension), Params.
// NotifyTargeted subscribes the cache to its window's write
// notifications instead: each remote PutNotify names the exact byte span
// it wrote, and draining the queue applies that span to only the cached
// entries it touches. Coherence becomes bounded-staleness: a cached span
// may be served at most as stale as the undrained queue, and the queue
// is drained at every access and every epoch boundary.
//
// What a write does to cached bytes is decided in one place, cohere
// (range.go), for a drained notification and for the origin's own Put
// and PutNotify alike: when the written bytes are at hand, every CACHED
// entry inside the span is patched in place (a write hit — reads keep
// hitting), and every other entry overlapping the span is dropped. A
// descriptor that carries its bytes and arrives in sequence passes them
// on; any other passes none, so it only drops.
//
// The model is only sound when every delivery anomaly degrades towards
// *more* invalidation, never less:
//
//   - queue overflow (the transport shed descriptors) → full invalidation;
//   - a sequence gap (a descriptor was lost in transit) → full invalidation;
//   - a duplicate or reordered redelivery → the span is invalidated but
//     never patched (its carried bytes may predate a newer write).
//
// Params.WriteBack stages writes in a dirty buffer that flushes as
// coalesced runs at epoch closure or under pressure, cutting per-call
// network trips the way GetBatch coalesces misses.

import (
	"errors"
	"slices"

	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// ErrNoNotify reports PutNotify on a cache whose window does not
// implement rma.NotifyWindow.
var ErrNoNotify = errors.New("core: window does not support notifications")

// notifyDrainBatch is the drain scratch size: one NotifyPoll's worth of
// descriptors processed per loop iteration.
const notifyDrainBatch = 64

// dirtySpan is one write-back-staged write: data (carved off wbArena)
// destined for [disp, disp+len(data)) of target's region. notified spans
// flush through PutNotify with the recorded tag, plain ones through Put.
type dirtySpan struct {
	target int
	disp   int
	data   []byte
	tag    uint32
	notify bool
}

// PutNotify is Put with a write notification: the write is delivered to
// the target and a descriptor naming (origin, target, disp, span, tag)
// is pushed to every subscribed rank (rma.NotifyWindow). The local cache
// is kept coherent exactly as in Put. ErrNoNotify when the backend lacks
// the extension.
func (c *Cache) PutNotify(src []byte, dtype datatype.Datatype, count, target, disp int, tag uint32) error {
	if c.nw == nil {
		return ErrNoNotify
	}
	return c.write(src, dtype, count, target, disp, tag, true)
}

// NotifyQueueDepth returns the number of undrained notification
// descriptors (0 when the cache is not subscribed) — the observability
// gauge feed.
func (c *Cache) NotifyQueueDepth() int {
	if !c.nsub {
		return 0
	}
	return c.nw.NotifyDepth()
}

// write is the shared Put/PutNotify implementation: local coherence
// (patch or invalidate), then write-through or write-back staging.
func (c *Cache) write(src []byte, dtype datatype.Datatype, count, target, disp int, tag uint32, notified bool) error {
	if c.wbErr != nil {
		err := c.wbErr
		c.wbErr = nil
		return err
	}
	if c.nsub && c.nw.NotifyDepth() > 0 {
		// Writes participate in access-time coherence like reads do: a
		// queued remote write to the same span must not be patched over
		// after our own (later) write lands.
		c.drainNotifications()
	}
	size := datatype.TransferSize(dtype, count)
	if len(src) < size {
		return rma.ErrShortBuf
	}
	if size > 0 {
		if patched, _ := c.cohere(target, disp, size, src[:size]); patched > 0 {
			c.stats.WriteHits++
		}
		if c.params.WriteBack {
			return c.stageDirty(target, disp, src[:size], tag, notified)
		}
	}
	if notified {
		return c.nw.PutNotify(src, dtype, count, target, disp, tag)
	}
	return c.win.Put(src, dtype, count, target, disp)
}

// drainNotifications empties the window's notification queue, applying
// each descriptor to the cache. Called whenever NotifyDepth reports
// pending descriptors: at access time (openGet, write) and at epoch
// closure.
func (c *Cache) drainNotifications() {
	fellBack := false
	for {
		n, overflowed := c.nw.NotifyPoll(c.nbuf)
		if overflowed && !fellBack {
			// The queue shed descriptors: unknown spans changed, so
			// coherence is restored conservatively. Once per drain — the
			// cache is already empty afterwards.
			fellBack = true
			c.Invalidate()
		}
		for i := range c.nbuf[:n] {
			c.applyNotification(&c.nbuf[i], &fellBack)
			c.nbuf[i] = notify.Notification{} // drop the Data reference
		}
		if n < len(c.nbuf) {
			break
		}
	}
	// Tail-loss reconciliation: a lost delivery with no later arrival
	// leaves no in-queue gap to observe, but it did consume a sequence
	// number at the transport. The queue is empty here, so trailing the
	// delivered-count register proves deliveries were missed.
	if last := c.nw.NotifyLastSeq(); last >= c.nextSeq {
		if !fellBack {
			c.Invalidate()
		}
		c.nextSeq = last + 1
	}
}

// applyNotification applies one drained descriptor: an in-sequence
// descriptor goes through cohere with its carried bytes, if it carries the
// whole span; a sequence gap falls back to a full invalidation (a
// descriptor was lost in transit — fault injection and real UNR hardware
// both drop); and a stale sequence (duplicate or reordered redelivery)
// goes through cohere with nothing carried, so it never patches.
func (c *Cache) applyNotification(nf *notify.Notification, fellBack *bool) {
	c.stats.Notifications++
	c.clock.Busy(CostNotifyApply)
	if nf.Seq > c.nextSeq {
		if !*fellBack {
			*fellBack = true
			c.Invalidate()
		}
		c.nextSeq = nf.Seq + 1
		return
	}
	var data []byte
	if nf.Seq == c.nextSeq {
		c.nextSeq++
		if len(nf.Data) == nf.Len {
			data = nf.Data
		}
	}
	if patched, _ := c.cohere(nf.Target, nf.Disp, nf.Len, data); patched > 0 {
		c.stats.NotifyPatches++
	} else {
		c.stats.NotifyInvalidations++
	}
}

// stageDirty admits one write into the write-back buffer. A write
// overlapping an already-staged span forces a flush first: the
// sort-and-merge flush below would otherwise reorder same-span writes.
func (c *Cache) stageDirty(target, disp int, src []byte, tag uint32, notified bool) error {
	if err := c.flushOverlap(target, disp, len(src)); err != nil {
		return err
	}
	c.clock.Busy(CostWriteStage)
	buf := c.wbStage(len(src))
	copy(buf, src)
	c.stats.CopyTime += c.charge(copyCost(len(src)))
	c.dirty = append(c.dirty, dirtySpan{target: target, disp: disp, data: buf, tag: tag, notify: notified})
	c.stats.WriteBacks++
	if len(c.dirty) >= DefaultWriteBackMaxSpans {
		return c.flushDirty()
	}
	return nil
}

// wbStage carves n bytes off the write-back arena — stageBuf's dual,
// except this arena lives until its spans flush, not until the epoch
// closes (a pressure flush can run mid-epoch). As with stageBuf, a
// replaced backing array stays alive through the span slices cut from
// it, so growth never invalidates staged spans.
func (c *Cache) wbStage(n int) []byte {
	if len(c.wbArena)+n > cap(c.wbArena) {
		c.wbArena = make([]byte, 0, max(n, 64<<10))
	}
	s := c.wbArena[len(c.wbArena) : len(c.wbArena)+n : len(c.wbArena)+n]
	c.wbArena = c.wbArena[:len(c.wbArena)+n]
	return s
}

// flushOverlap force-flushes the write-back buffer when a read overlaps
// a staged dirty span (read-your-writes); disjoint reads leave the
// buffer staged.
func (c *Cache) flushOverlap(target, disp, size int) error {
	for i := range c.dirty {
		d := &c.dirty[i]
		if d.target == target && d.disp < disp+size && disp < d.disp+len(d.data) {
			return c.flushDirty()
		}
	}
	return nil
}

// flushDirty issues every staged span, coalescing exactly-adjacent
// same-target runs (same notification kind and tag) into one message
// each — the GetBatch sort-and-merge idiom applied to writes, except
// only true adjacency merges: bridging a gap would write bytes the
// application never put. Spans are disjoint by construction (stageDirty
// pre-flushes overlaps), so the sorted order is the issue order. On a
// transport error the remaining runs still flush; the first error is
// returned.
func (c *Cache) flushDirty() error {
	if len(c.dirty) == 0 {
		return nil
	}
	c.clock.Busy(simtime.Duration(len(c.dirty)) * CostBatchPlanPerMiss)
	slices.SortFunc(c.dirty, func(a, b dirtySpan) int {
		if a.target != b.target {
			return a.target - b.target
		}
		return a.disp - b.disp
	})
	var firstErr error
	for i := 0; i < len(c.dirty); {
		d0 := &c.dirty[i]
		end := d0.disp + len(d0.data)
		j := i + 1
		for ; j < len(c.dirty); j++ {
			n := &c.dirty[j]
			if n.target != d0.target || n.notify != d0.notify || n.tag != d0.tag || n.disp != end {
				break
			}
			end += len(n.data)
		}
		payload := d0.data
		if j > i+1 {
			need := end - d0.disp
			if cap(c.wbMerge) < need {
				c.wbMerge = make([]byte, 0, need)
			}
			m := c.wbMerge[:0]
			for k := i; k < j; k++ {
				m = append(m, c.dirty[k].data...)
			}
			c.stats.CopyTime += c.charge(copyCost(need))
			payload = m
		}
		var err error
		if d0.notify {
			err = c.nw.PutNotify(payload, datatype.Byte, len(payload), d0.target, d0.disp, d0.tag)
		} else {
			err = c.win.Put(payload, datatype.Byte, len(payload), d0.target, d0.disp)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		c.stats.DirtyFlushes++
		i = j
	}
	clear(c.dirty)
	c.dirty = c.dirty[:0]
	c.wbArena = c.wbArena[:0]
	return firstErr
}
