package core

import (
	"errors"
	"strings"
	"testing"

	"clampi/internal/cuckoo"
	"clampi/internal/datatype"
	"clampi/internal/mpi"
)

// TestCheckIntegrityDetectsCorruption deliberately corrupts internal
// structures and verifies the checker reports each corruption class.
func TestCheckIntegrityDetectsCorruption(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		for i := 0; i < 3; i++ {
			if err := c.Get(dst, datatype.Byte, 64, 1, i*64); err != nil {
				return err
			}
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if err := c.CheckIntegrity(); err != nil {
			t.Errorf("clean cache flagged: %v", err)
			return nil
		}

		// 1. Evicted-but-indexed entry.
		var victim *entry
		c.idx.Walk(func(_ cuckoo.Key, r ref) bool { victim = r.e; return false })
		old := victim.state
		victim.state = stateEvicted
		if err := c.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "evicted") {
			t.Errorf("evicted corruption not detected: %v", err)
		}
		victim.state = old

		// 2. Payload exceeding the region.
		oldPayload := victim.payload
		victim.payload = victim.region.Size() + 1
		if err := c.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "exceeds region") {
			t.Errorf("payload corruption not detected: %v", err)
		}
		victim.payload = oldPayload

		// 3. CACHED entry with waiters.
		victim.waiters = append(victim.waiters, waiter{dst: dst, size: 8})
		if err := c.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "waiters") {
			t.Errorf("waiter corruption not detected: %v", err)
		}
		victim.waiters = nil

		// 4. Key mismatch between slot and entry.
		oldKey := victim.key
		victim.key.Disp += 8
		if err := c.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "indexed under") {
			t.Errorf("key corruption not detected: %v", err)
		}
		victim.key = oldKey

		// 5. A slot record that disagrees with its entry: a CACHED entry
		// whose slot serves other than its payload, or nothing, and a slot
		// offset off the region.
		slot := c.idx.Ptr(victim.key)
		for _, hit := range []int32{slot.hit + 1, slot.hit - 1, -1} {
			old := slot.hit
			slot.hit = hit
			if err := c.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "slot serves") {
				t.Errorf("slot hit %d for payload %d not detected: %v", hit, victim.payload, err)
			}
			slot.hit = old
		}
		slot.off += 64
		if err := c.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "slot offset") {
			t.Errorf("slot offset corruption not detected: %v", err)
		}
		slot.off -= 64

		// 6. Storage/index accounting mismatch: allocate a region no
		// entry references.
		extra := c.store.Alloc(64)
		if err := c.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "regions") {
			t.Errorf("orphan region not detected: %v", err)
		}
		c.store.FreeRegion(extra)

		// 7. A count of CACHED entries the capacity scan would trust to
		// stop early, or to skip its walk.
		for _, off := range []int{-1, 1} {
			c.evictable += off
			if err := c.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "count says") {
				t.Errorf("CACHED count off by %d not detected: %v", off, err)
			}
			c.evictable -= off
		}

		if err := c.CheckIntegrity(); err != nil {
			t.Errorf("cache did not recover after corruption repair: %v", err)
		}
		return nil
	})
}

// TestAdaptiveShrinksOversizedStorage exercises the |S_w| shrink path:
// a stable, hit-dominated workload in a mostly-empty buffer.
func TestAdaptiveShrinksOversizedStorage(t *testing.T) {
	p := alwaysParams()
	p.StorageBytes = 8 << 20 // vastly oversized for a 16-entry working set
	p.Adaptive = true
	p.TuneInterval = 64
	withCache(t, 1<<14, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 128)
		for i := 0; i < 600; i++ {
			if err := c.Get(dst, datatype.Byte, 128, 1, (i%16)*128); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
		}
		if c.StorageBytes() >= 8<<20 {
			t.Errorf("oversized storage never shrank: %d", c.StorageBytes())
		}
		if s := c.Stats(); s.Adjustments == 0 {
			t.Errorf("no adjustments: %s", s.String())
		}
		return nil
	})
}

// TestTuneShrinksSparseIndex exercises the |I_w| shrink branch directly:
// a stats window showing capacity evictions with very sparse scans (low
// q) and no pressure must shrink the index. The branch is hard to pin
// down through a workload because capacity pressure (which grows |S_w|)
// takes priority — see tune()'s ordering.
func TestTuneShrinksSparseIndex(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 1 << 14
	p.Adaptive = true
	withCache(t, 1<<14, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		c.stats = c.stats.Add(Stats{
			Gets:            1000,
			Hits:            400, // below StableThreshold: no |S_w| shrink
			Capacity:        20,  // 2%: below CapacityThreshold
			EvictionScans:   20,
			VisitedSlots:    2000,
			NonEmptyVisited: 40, // q = 0.02 << SparsityThreshold
		})
		c.tune()
		if c.IndexSlots() >= 1<<14 {
			t.Errorf("sparse index did not shrink: %d", c.IndexSlots())
		}
		if c.stats.Adjustments != 1 {
			t.Errorf("Adjustments = %d", c.stats.Adjustments)
		}
		// The shrink is clamped at minIndexSlots.
		for i := 0; i < 20; i++ {
			c.stats = c.stats.Add(Stats{Gets: 1000, EvictionScans: 20, VisitedSlots: 2000, NonEmptyVisited: 1})
			c.tune()
		}
		if c.IndexSlots() < minIndexSlots {
			t.Errorf("index shrank below the floor: %d", c.IndexSlots())
		}
		return nil
	})
}

// TestTuneShrinkStorageClamp drives the |S_w| shrink branch to its floor.
func TestTuneShrinkStorageClamp(t *testing.T) {
	p := alwaysParams()
	p.StorageBytes = 64 << 10
	p.Adaptive = true
	withCache(t, 1<<14, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		for i := 0; i < 20; i++ {
			c.stats = c.stats.Add(Stats{Gets: 1000, Hits: 950}) // stable, empty buffer
			c.tune()
		}
		if c.StorageBytes() < minStorageBytes {
			t.Errorf("storage shrank below the floor: %d", c.StorageBytes())
		}
		if c.StorageBytes() >= 64<<10 {
			t.Errorf("stable empty storage never shrank: %d", c.StorageBytes())
		}
		return nil
	})
}

// TestAdaptiveGrowthClamps verifies that the resize clamp bounds
// adaptive growth and shrinking, and that an adjustment the clamp
// nullifies neither counts nor invalidates.
func TestAdaptiveGrowthClamps(t *testing.T) {
	for _, tc := range []struct {
		cur    int
		factor float64
		want   int
	}{
		{64, growFactor, 64},    // at the ceiling: growth impossible
		{48, growFactor, 64},    // growth stops at the ceiling
		{24, growFactor, 48},    // inside the bounds
		{16, shrinkFactor, 16},  // at the floor: shrinking impossible
		{24, shrinkFactor, 16},  // shrinking stops at the floor
		{40, shrinkFactor, 20},  // inside the bounds
		{100, shrinkFactor, 50}, // above the ceiling: a shrink still applies
		{100, growFactor, 100},  // above the ceiling: a grow must not shrink
		{8, shrinkFactor, 8},    // below the floor: a shrink must not grow
	} {
		if got := resized(tc.cur, tc.factor, 16, 64); got != tc.want {
			t.Errorf("resized(%d, %g, 16, 64) = %d, want %d", tc.cur, tc.factor, got, tc.want)
		}
	}

	p := alwaysParams()
	p.IndexSlots = minIndexSlots
	p.Adaptive = true
	withCache(t, 1<<14, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		if err := c.Get(dst, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		// A sparse index at the floor: the shrink is clamped away.
		c.stats = c.stats.Add(Stats{Gets: 1000, Hits: 400, EvictionScans: 20, VisitedSlots: 2000, NonEmptyVisited: 1})
		before := c.stats
		c.tune()
		if c.IndexSlots() != minIndexSlots || c.stats != before {
			t.Errorf("clamped shrink changed the cache: %d slots, %+v", c.IndexSlots(), c.stats.Sub(before))
		}
		if err := c.Get(dst, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if c.LastAccess().Type != AccessHit {
			t.Errorf("clamped shrink dropped the cached entry: %+v", c.LastAccess())
		}
		return win.FlushAll()
	})
}

// TestNewRejectsUnaddressableStorage: an index slot addresses its payload
// with 32-bit fields, so New refuses a buffer larger than maxStorageBytes
// instead of building a cache whose hits would read the wrong bytes.
func TestNewRejectsUnaddressableStorage(t *testing.T) {
	withCache(t, 64, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		p := alwaysParams()
		p.StorageBytes = maxStorageBytes + 1
		if _, err := New(win, p); !errors.Is(err, ErrStorageTooLarge) {
			t.Errorf("New with %d storage bytes: %v, want ErrStorageTooLarge", p.StorageBytes, err)
		}
		return nil
	})
}
