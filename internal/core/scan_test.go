package core

import (
	"fmt"
	"slices"
	"testing"

	"clampi/internal/cuckoo"
	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/simtime"
)

// TestInvalidateSparseIndexCharge: a blanket invalidation of a 4096-slot
// index holding two CACHED entries is charged the paper's index memset,
// CostInvalidateBase plus CostInvalidatePerSlot per slot, although the
// host only drains the two slots; the entries, the ordered view and the
// count of CACHED entries are all gone afterwards.
func TestInvalidateSparseIndexCharge(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 4096
	withCache(t, 4096, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		for _, disp := range []int{0, 512} {
			if err := c.Get(dst, datatype.Byte, 64, 1, disp); err != nil {
				return err
			}
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		c.InvalidateRange(0, 0, 1) // builds the ordered view, which the drain empties
		if c.CachedEntries() != 2 || c.evictable != 2 || c.view == nil {
			return fmt.Errorf("set-up: %d indexed, %d CACHED, view %v", c.CachedEntries(), c.evictable, c.view != nil)
		}
		before := r.Clock().Now()
		c.Invalidate()
		want := CostInvalidateBase + 4096*CostInvalidatePerSlot
		if got := r.Clock().Now() - before; got != want {
			t.Errorf("invalidation charged %v, want %v", got, want)
		}
		if c.CachedEntries() != 0 || c.evictable != 0 || c.view.tree.Len() != 0 {
			t.Errorf("after invalidation: %d indexed, %d CACHED, %d in the view", c.CachedEntries(), c.evictable, c.view.tree.Len())
		}
		if err := c.CheckIntegrity(); err != nil {
			t.Errorf("after invalidation: %v", err)
		}
		// Both records were retired and recycled: the refetch misses and
		// reuses them.
		for _, disp := range []int{0, 512} {
			if err := c.Get(dst, datatype.Byte, 64, 1, disp); err != nil {
				return err
			}
			if a := c.LastAccess(); a.Type != AccessDirect {
				t.Errorf("refetch of %d: %v, want a direct miss", disp, a.Type)
			}
		}
		if len(c.free) != 0 {
			t.Errorf("%d recycled records left unused", len(c.free))
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst, 512)
		return c.CheckIntegrity()
	})
}

// TestFutileCapacityScanSkipsWalk: with only PENDING entries indexed, a
// capacity miss finds no victim. It is counted and charged as the model's
// scan that wraps the whole index (Cap slots visited, Cap ×
// CostPerScanSlot), draws the one RandomSlot that scan draws, and walks
// no slot on the host: a record planted in the index that a walk would
// score goes unread.
func TestFutileCapacityScanSkipsWalk(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 4096
	p.StorageBytes = 4096
	withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		disp := 0
		for c.LastAccess().Type != AccessFailing {
			if err := c.Get(dst, datatype.Byte, 64, 1, disp); err != nil {
				return err
			}
			disp += 64
		}
		if c.evictable != 0 || c.CachedEntries() == 0 {
			return fmt.Errorf("set-up: %d CACHED of %d indexed", c.evictable, c.CachedEntries())
		}
		// A key whose first candidate slot is empty carries the planted
		// record: CACHED to the scan (hit >= 0) but with no entry, so
		// scoring it panics.
		key := cuckoo.Key{Target: 1 << 20}
		for {
			if _, _, used := c.idx.At(c.idx.Candidates(key)[0]); !used {
				break
			}
			key.Disp++
		}
		c.idx.ReplaceAt(c.idx.Candidates(key)[0], key, ref{hit: 0})
		before := c.Stats()
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Errorf("the futile scan walked the index: %v", v)
				}
			}()
			if err := c.Get(dst, datatype.Byte, 64, 1, disp); err != nil {
				t.Error(err)
			}
		}()
		c.idx.Delete(key)
		d := c.Stats().Sub(before)
		if c.LastAccess().Type != AccessFailing || d.Evictions != 0 {
			t.Errorf("access %v with %d evictions, want failing with none", c.LastAccess().Type, d.Evictions)
		}
		if d.EvictionScans != 1 || d.VisitedSlots != 4096 || d.NonEmptyVisited != 0 {
			t.Errorf("scan counted %d scans, %d slots, %d entries; want 1, 4096, 0", d.EvictionScans, d.VisitedSlots, d.NonEmptyVisited)
		}
		if want := 4096 * CostPerScanSlot; d.EvictTime != want || c.LastAccess().Evict != want {
			t.Errorf("scan charged %v (access %v), want %v", d.EvictTime, c.LastAccess().Evict, want)
		}
		// Inserts draw nothing, so the index's RNG has served exactly
		// one start per scan, as the walking scan's did.
		twin := newIndex(p.IndexSlots, p.Seed)
		for i := int64(0); i < c.Stats().EvictionScans; i++ {
			twin.RandomSlot()
		}
		if got, want := c.idx.RandomSlot(), twin.RandomSlot(); got != want {
			t.Errorf("next RandomSlot %d, want %d", got, want)
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		return c.CheckIntegrity()
	})
}

// TestSampleScanMatchesFullWalk holds sampleScan, whose host walk stops
// once it has seen every CACHED entry the count promises, to the scan
// that walks on until its own stopping rule: the same entries reach keep
// in the same order, and the same slots, entries and charge are counted,
// over mixes of CACHED and PENDING entries, sample sizes below and above
// the index size, and reservoir sizes below and above the CACHED count.
func TestSampleScanMatchesFullWalk(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 64
	for _, mix := range [][2]int{{0, 0}, {0, 9}, {1, 0}, {1, 7}, {5, 3}, {20, 20}, {40, 0}} {
		withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
			dst := make([]byte, 64)
			disp := 0
			for i := 0; i < mix[0]+mix[1]; i++ {
				if i == mix[0] {
					if err := win.FlushAll(); err != nil {
						return err
					}
				}
				if err := c.Get(dst, datatype.Byte, 64, 1, disp); err != nil {
					return err
				}
				disp += 64
			}
			if mix[1] == 0 {
				if err := win.FlushAll(); err != nil {
					return err
				}
			}
			twin := newIndex(p.IndexSlots, p.Seed)
			for i := int64(0); i < c.Stats().EvictionScans; i++ {
				twin.RandomSlot()
			}
			for _, m := range []int{1, 16, 64, 100} {
				for _, want := range []int{1, 2, c.evictable, c.evictable + 1, 100} {
					if want <= 0 {
						continue
					}
					c.params.SampleSize = m
					var wantSeen []*entry
					visited, nonEmpty := 0, 0
					c.idx.Scan(twin.RandomSlot(), func(_ int, _ cuckoo.Key, r ref, used bool) bool {
						visited++
						if used && r.cached() {
							nonEmpty++
							wantSeen = append(wantSeen, r.e)
						}
						return visited < m || nonEmpty < want
					})
					var seen []*entry
					before, t0 := c.Stats(), r.Clock().Now()
					d := c.sampleScan(want, func(r ref) { seen = append(seen, r.e) })
					s := c.Stats().Sub(before)
					charge := simtime.Duration(visited)*CostPerScanSlot + simtime.Duration(nonEmpty)*CostPerScoredEntry
					if !slices.Equal(seen, wantSeen) || s.VisitedSlots != int64(visited) || s.NonEmptyVisited != int64(nonEmpty) ||
						d != charge || s.EvictTime != charge || r.Clock().Now()-t0 != charge {
						t.Errorf("%d CACHED + %d PENDING, M %d, want %d: kept %d entries, counted %d slots, %d entries, charged %v; the full walk keeps %d, visits %d slots, %d entries, charges %v",
							mix[0], mix[1], m, want, len(seen), s.VisitedSlots, s.NonEmptyVisited, d, len(wantSeen), visited, nonEmpty, charge)
					}
				}
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			return c.CheckIntegrity()
		})
	}
}
