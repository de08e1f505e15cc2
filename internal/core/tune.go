package core

// Adaptive parameter selection (paper §III-E1).
//
// The tuner runs at epoch closures, once at least TuneInterval gets have
// been observed since the previous evaluation. It inspects the counters
// accumulated over that window and applies at most one adjustment, by
// fixed thresholds:
//
//   - conflicting/gets > conflictThreshold        → grow |I_w|
//   - (capacity+failing)/gets > capacityThreshold → grow |S_w|
//   - eviction-scan density q < sparsityThreshold → shrink |I_w|
//   - hits/gets > stableThreshold and free space
//     above freeSpaceThreshold                    → shrink |S_w|
//
// A grow multiplies by growFactor and a shrink by shrinkFactor, clamped
// to [minIndexSlots, maxIndexSlots] and [minStorageBytes,
// maxStorageBytes]; the clamp never turns a grow into a shrink or a
// shrink into a grow. Changing either parameter requires invalidating the
// cache, so every adjustment is counted (the paper annotates figures
// with the number of invalidations/adjustments performed).

import "math"

const (
	conflictThreshold = 0.10
	capacityThreshold = 0.10
	stableThreshold   = 0.80
	sparsityThreshold = 0.20
	// Shrinking |S_w| only with >75% free keeps the tuner from
	// oscillating between a shrink (stable, half-empty) and the
	// capacity-driven grow it immediately causes.
	freeSpaceThreshold = 0.75

	growFactor   = 2.0
	shrinkFactor = 0.5

	// The floors keep a shrunk table and buffer usable; the ceilings
	// bound growth. maxStorageBytes is also the largest buffer New
	// accepts: the most an index slot's int32 servable size (ref.hit)
	// represents.
	minIndexSlots   = 64
	maxIndexSlots   = 1 << 24
	minStorageBytes = 4096
	maxStorageBytes = math.MaxInt32
)

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
	case conflictRate > conflictThreshold:
		adjusted = c.resizeIndex(growFactor)
	case capFailRate > capacityThreshold:
		adjusted = c.resizeStorage(growFactor)
	case s.EvictionScans > 0 && q < sparsityThreshold:
		adjusted = c.resizeIndex(shrinkFactor)
	case hitRate > stableThreshold && freeFrac > freeSpaceThreshold:
		adjusted = c.resizeStorage(shrinkFactor)
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

// resized applies factor to cur, clamped to [lo, hi] without reversing
// its direction: a grow of a size already above hi, or a shrink of one
// already below lo, leaves it unchanged.
func resized(cur int, factor float64, lo, hi int) int {
	next := int(float64(cur) * factor)
	if factor > 1 {
		return max(cur, min(next, hi))
	}
	return min(cur, max(next, lo))
}

// resizeIndex applies factor to |I_w|. Returns false if clamping
// nullified the change. The new table is created empty: a parameter
// change implies invalidation anyway (§III-E), and the caller's
// invalidate() sees only the new table, so the old one is drained here.
func (c *Cache) resizeIndex(factor float64) bool {
	next := resized(c.idx.Cap(), factor, minIndexSlots, maxIndexSlots)
	if next == c.idx.Cap() {
		return false
	}
	c.drainIndex()
	c.idx = newIndex(next, c.params.Seed)
	c.charge(CostInvalidateBase)
	return true
}

// resizeStorage applies factor to |S_w|, as resizeIndex.
func (c *Cache) resizeStorage(factor float64) bool {
	next := resized(c.store.Capacity(), factor, minStorageBytes, maxStorageBytes)
	if next == c.store.Capacity() {
		return false
	}
	c.store.Resize(next)
	c.charge(CostInvalidateBase)
	return true
}
