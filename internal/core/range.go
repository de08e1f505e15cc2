package core

import (
	"math/bits"

	"clampi/internal/avl"
	"clampi/internal/cuckoo"
	"clampi/internal/datatype"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// Write coherence (an extension beyond the paper).
//
// CLaMPI's modes assume windows are read-only while caching is active;
// a put issued *by the caching process itself* through the same window
// would silently leave stale entries behind. The paper leaves write
// consistency to the user. As a safety extension, Put routes writes
// through the cache layer, and cohere patches or drops every (origin-
// local) entry overlapping the written range first, so a process never
// reads its own stale writes back; a drained write notification
// (notify.go) goes through the same routine for a remote writer's span.
//
// The Cuckoo index has no spatial structure — the paper trades range
// queries for O(1) lookups — so "which entries overlap these bytes" is
// answered from a second, ordered view of the same entries: an AVL tree
// keyed (target, disp). An entry starting at d overlaps [disp, disp+size)
// only if d < disp+size and d > disp−payload, and no payload exceeds the
// cache's high-water mark maxPayload, so the overlapping entries all lie
// in the key interval [disp−maxPayload+1, disp+size) of the target: one
// seek and a scan of that interval, O(log n + k), where walking the index
// costs O(|I_w|) however few entries it holds (DESIGN.md §16).
//
// Keeping the view current taxes every insert and eviction, and a cache
// over a read-only window — the paper's case — never asks a range
// question. So the view does not exist until the first range query a
// cache receives: that query builds it with the one index walk the old
// design spent on every query, and it is maintained from then on
// (indexed, retire, invalidate, and the partial-hit extension that
// raises maxPayload). A cache that is never written to and never
// notified pays one nil test per miss.

// spanView is the ordered (target, disp) view of the indexed entries.
type spanView struct {
	tree avl.Tree[*entry]
	// maxPayload bounds every indexed entry's payload from above. It only
	// rises while the view holds anything: an eviction may leave it loose,
	// which widens a scan but never hides an overlap.
	maxPayload int
}

func viewKey(k cuckoo.Key) avl.Key { return avl.Key{Size: k.Target, Off: k.Disp} }

func (v *spanView) add(e *entry) {
	v.tree.Insert(viewKey(e.key), e)
	v.maxPayload = max(v.maxPayload, e.payload)
}

// remove drops e from the view. Records are recycled and a record that
// lost its index slot may share its key with the live entry that took
// it, so the record itself is compared, not the key alone.
func (v *spanView) remove(e *entry) {
	if cur, ok := v.tree.Get(viewKey(e.key)); ok && cur == e {
		v.tree.Delete(viewKey(e.key))
		if v.tree.Len() == 0 {
			v.maxPayload = 0
		}
	}
}

func (v *spanView) reset() {
	v.tree.Clear()
	v.maxPayload = 0
}

// buildView creates the view from the index: the one whole-index walk a
// cache that receives range queries ever makes for them, charged as the
// walk was.
func (c *Cache) buildView() {
	c.view = &spanView{}
	c.idx.Walk(func(_ cuckoo.Key, r ref) bool {
		c.view.add(r.e)
		return true
	})
	c.charge(simtime.Duration(c.idx.Len()) * CostPerScanSlot)
}

// cohere is the one place that decides what a write of target's bytes
// [disp, disp+size) does to the cache: a local Put or PutNotify, a drained
// notification, and InvalidateRange all come here. data, when non-nil,
// holds the written bytes. Every CACHED entry lying wholly inside the span
// is then patched from them in place; every other overlapping entry — cut
// by the span's edge, PENDING, or met when nothing is carried — is dropped,
// a PENDING one after serving its same-epoch waiters. No entry that
// overlaps the span keeps bytes from before the write, however many
// overlap it.
//
// The overlapping entries come from the ordered view: a seek plus the k
// entries of the interval that can overlap, charged ⌈log2(n+1)⌉ + k slot
// visits, then a copy per patch and a removal per drop.
func (c *Cache) cohere(target, disp, size int, data []byte) (patched, dropped int) {
	if size <= 0 {
		return 0, 0
	}
	if c.view == nil {
		c.buildView()
	}
	scanned := 0
	end := disp + size
	c.view.tree.Ascend(avl.Key{Size: target, Off: disp - c.view.maxPayload + 1}, func(k avl.Key, e *entry) bool {
		if k.Size != target || k.Off >= end {
			return false
		}
		scanned++
		if disp < k.Off+e.payload {
			c.victims = append(c.victims, e)
		}
		return true
	})
	c.charge(simtime.Duration(bits.Len(uint(c.idx.Len()))+scanned) * CostPerScanSlot)
	for _, e := range c.victims {
		if data != nil && e.state == stateCached && disp <= e.key.Disp && e.key.Disp+e.payload <= end {
			// The patch keeps the entry's recency: the score ranks gets
			// (§III-D), and a write is not one.
			at := e.key.Disp - disp
			copy(c.store.Bytes(e.region, e.payload), data[at:at+e.payload])
			c.stats.CopyTime += c.charge(copyCost(e.payload))
			if c.verify {
				e.sum = rma.ChecksumBytes(c.store.Bytes(e.region, e.payload))
				c.charge(checksumCost(e.payload))
			}
			patched++
			continue
		}
		if e.state == statePending {
			c.serveWaiters(e)
		}
		c.idx.Delete(e.key)
		c.store.FreeRegion(e.region)
		c.charge(CostLookup + CostFree)
		c.retire(e)
		dropped++
	}
	clear(c.victims)
	c.victims = c.victims[:0]
	return patched, dropped
}

// InvalidateRange drops every cached entry of target that overlaps the
// byte range [disp, disp+size) and returns how many it dropped: cohere
// with nothing carried.
func (c *Cache) InvalidateRange(target, disp, size int) int {
	_, dropped := c.cohere(target, disp, size, nil)
	return dropped
}

// Put routes a write through the cache layer (notify.go), keeping the
// origin's own cache coherent with its writes (cohere): cached entries
// inside the written span are patched in place, anything else overlapping
// it is invalidated. Write-through by default; Params.WriteBack stages
// spans for a coalesced flush at epoch closure.
func (c *Cache) Put(src []byte, dtype datatype.Datatype, count, target, disp int) error {
	return c.write(src, dtype, count, target, disp, 0, false)
}

// Prefetch warms the cache with size bytes at target's displacement disp
// without delivering data to the application (an extension beyond the
// paper): the remote get lands in a cache-owned buffer and the entry
// becomes CACHED at the next epoch closure, so a later Get in a
// subsequent epoch is a pure local hit. A prefetch of already-cached
// data only refreshes its temporal score. Prefetches flow through the
// normal get path and are classified in the statistics like any get.
func (c *Cache) Prefetch(target, disp, size int) error {
	if size <= 0 {
		return nil
	}
	c.stats.Prefetches++
	// The destination lives in the epoch-lifetime arena: it must stay
	// intact until the closure copy-in, and carving it off the arena
	// keeps the prefetch path allocation-free in steady state.
	buf := c.stageBuf(size)
	return c.Get(buf, datatype.Byte, size, target, disp)
}
