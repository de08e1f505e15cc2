package core

// Adaptive parameter selection (paper §III-E1).
//
// The tuner runs at epoch closures, once at least TuneInterval gets have
// been observed since the previous evaluation. It inspects the counters
// accumulated over that window and applies at most one adjustment:
//
//   - conflicting/gets > ConflictThreshold        → grow |I_w|
//   - eviction-scan density q < SparsityThreshold → shrink |I_w|
//   - (capacity+failing)/gets > CapacityThreshold → grow |S_w|
//   - hits/gets > StableThreshold and free space
//     above FreeSpaceThreshold                    → shrink |S_w|
//
// Changing either parameter requires invalidating the cache, so every
// adjustment is counted (the paper annotates figures with the number of
// invalidations/adjustments performed).

// minIndexSlots bounds adaptive shrinking so the table stays usable.
const minIndexSlots = 64

// minStorageBytes bounds adaptive shrinking of S_w.
const minStorageBytes = 4096

// tune evaluates the adaptive policy over the stats window since the last
// evaluation. It must only run at an epoch boundary (no in-flight
// PENDING entries rely on the index/storage being stable).
func (c *Cache) tune() {
	// The observation window is the delta of the running totals since the
	// last evaluation — a snapshot subtraction instead of a second
	// counter increment at every access site.
	win := c.stats.Sub(c.tuneSnap)
	s := &win
	gets := float64(s.Gets)
	if gets == 0 {
		return
	}
	conflictRate := float64(s.Conflicting) / gets
	capFailRate := float64(s.Capacity+s.Failing) / gets
	hitRate := float64(s.Hits) / gets
	freeFrac := float64(c.store.FreeBytes()) / float64(c.store.Capacity())
	q := 1.0
	if s.VisitedSlots > 0 {
		q = float64(s.NonEmptyVisited) / float64(s.VisitedSlots)
	}

	// Growth conditions are evaluated before shrink conditions:
	// conflicting and capacity/failing accesses mean requests are not
	// being cached at all, which dominates any memory-footprint
	// concern. Shrinks only apply to a cache that is otherwise healthy.
	prevIdx, prevMem := c.idx.Cap(), c.store.Capacity()
	adjusted := false
	switch {
	case conflictRate > c.params.ConflictThreshold:
		adjusted = c.resizeIndex(c.params.IndexGrowFactor)
	case capFailRate > c.params.CapacityThreshold:
		adjusted = c.resizeStorage(c.params.MemGrowFactor)
	case s.EvictionScans > 0 && q < c.params.SparsityThreshold:
		adjusted = c.resizeIndex(c.params.IndexShrinkFactor)
	case hitRate > c.params.StableThreshold && freeFrac > c.params.FreeSpaceThreshold:
		adjusted = c.resizeStorage(c.params.MemShrinkFactor)
	}
	if adjusted {
		c.stats.Adjustments++
		c.invalidate()
		if c.obs != nil {
			c.obs.OnAdjustment(AdjustmentEvent{
				Rank:             c.rank,
				Epoch:            c.win.Epoch(),
				Time:             c.clock.Now(),
				PrevIndexSlots:   prevIdx,
				IndexSlots:       c.idx.Cap(),
				PrevStorageBytes: prevMem,
				StorageBytes:     c.store.Capacity(),
			})
		}
	}
	// Start a fresh observation window either way.
	c.tuneSnap = c.stats
}

// resizeIndex applies factor to |I_w|, clamped to
// [minIndexSlots, MaxIndexSlots]. Returns false if clamping nullified the
// change. The new table is created empty: a parameter change implies
// invalidation anyway (§III-E), and the caller's invalidate() sees only
// the new table, so the old one's records are retired here.
func (c *Cache) resizeIndex(factor float64) bool {
	cur := c.idx.Cap()
	next := int(float64(cur) * factor)
	if next < minIndexSlots {
		next = minIndexSlots
	}
	if next > c.params.MaxIndexSlots {
		next = c.params.MaxIndexSlots
	}
	if next == cur {
		return false
	}
	c.retireCached()
	c.idx = newIndex(next, c.params.Seed)
	c.charge(CostInvalidateBase)
	return true
}

// resizeStorage applies factor to |S_w|, clamped to
// [minStorageBytes, MaxStorageBytes].
func (c *Cache) resizeStorage(factor float64) bool {
	cur := c.store.Capacity()
	next := int(float64(cur) * factor)
	if next < minStorageBytes {
		next = minStorageBytes
	}
	if next > c.params.MaxStorageBytes {
		next = c.params.MaxStorageBytes
	}
	if next == cur {
		return false
	}
	c.store.Resize(next)
	c.charge(CostInvalidateBase)
	return true
}
