package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/rma"
)

// pattern is the deterministic content of the target's window region.
func pattern(off int) byte { return byte((off*7 + 13) ^ (off >> 3)) }

// withCache runs a 2-rank world; rank 0 gets a Cache over a window whose
// rank-1 region holds regionSize bytes of pattern data, and runs fn. fn
// runs on rank 0's goroutine: it reports failures with t.Errorf and
// returns, since Fatalf's Goexit would leave rank 1 at the barrier.
func withCache(t *testing.T, regionSize int, params Params, fn func(c *Cache, win *mpi.Win, r *mpi.Rank) error) {
	t.Helper()
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, regionSize)
		if r.ID() == 1 {
			for i := range region {
				region[i] = pattern(i)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		// Collect rank 0's error without returning early: skipping the
		// trailing collectives would deadlock rank 1.
		var fnErr error
		if r.ID() == 0 {
			var c *Cache
			c, fnErr = New(win, params)
			if fnErr == nil {
				fnErr = win.LockAll()
			}
			if fnErr == nil {
				fnErr = fn(c, win, r)
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkData verifies dst against the target's pattern. It reports via
// Errorf (not Fatalf): it runs on rank goroutines, where Goexit would
// desynchronize the world's collectives and deadlock the other rank.
func checkData(t *testing.T, dst []byte, disp int) {
	t.Helper()
	for i, b := range dst {
		if b != pattern(disp+i) {
			t.Errorf("byte %d (disp %d): got %d want %d", i, disp, b, pattern(disp+i))
			return
		}
	}
}

func alwaysParams() Params {
	return Params{Mode: AlwaysCache, IndexSlots: 1024, StorageBytes: 1 << 20, Seed: 7}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Params{}); !errors.Is(err, ErrNilWindow) {
		t.Fatalf("New(nil) = %v", err)
	}
}

func TestMissThenFullHit(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 256)
		if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
			return err
		}
		if got := c.LastAccess(); got.Type != AccessDirect || !got.Issued {
			t.Errorf("first access = %+v, want direct+issued", got)
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst, 128)

		// Second epoch: must be a full hit with no network issue and
		// a much lower virtual-time cost.
		dst2 := make([]byte, 256)
		before := r.Clock().Now()
		if err := c.Get(dst2, datatype.Byte, 256, 1, 128); err != nil {
			return err
		}
		hitCost := r.Clock().Now() - before
		if got := c.LastAccess(); got.Type != AccessHit || got.Issued || got.Partial {
			t.Errorf("second access = %+v, want full hit", got)
		}
		checkData(t, dst2, 128)
		remote := r.Model().GetLatency(256, r.Distance(1))
		if hitCost >= remote {
			t.Errorf("hit cost %v not below remote latency %v", hitCost, remote)
		}
		s := c.Stats()
		if s.Gets != 2 || s.Hits != 1 || s.FullHits != 1 || s.Direct != 1 {
			t.Errorf("stats = %+v", s)
		}
		return win.FlushAll()
	})
}

func TestTransparentInvalidatesEachEpoch(t *testing.T) {
	p := alwaysParams()
	p.Mode = Transparent
	withCache(t, 4096, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		for epoch := 0; epoch < 3; epoch++ {
			if err := c.Get(dst, datatype.Byte, 64, 1, 0); err != nil {
				return err
			}
			if got := c.LastAccess().Type; got != AccessDirect {
				t.Errorf("epoch %d: access = %v, want direct (cache cold)", epoch, got)
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			checkData(t, dst, 0)
		}
		if s := c.Stats(); s.Hits != 0 || s.Invalidations != 3 {
			t.Errorf("stats = %+v, want 0 hits / 3 invalidations", s)
		}
		return nil
	})
}

func TestInfoKeySelectsMode(t *testing.T) {
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		win, _ := r.WinAllocate(64, mpi.Info{InfoKey: "always-cache"})
		defer win.Free()
		c, err := New(win, Params{})
		if err != nil {
			return err
		}
		if c.Mode() != AlwaysCache {
			t.Errorf("mode = %v, want always-cache", c.Mode())
		}
		win2, _ := r.WinAllocate(64, mpi.Info{InfoKey: "bogus"})
		defer win2.Free()
		c2, err := New(win2, Params{Mode: AlwaysCache})
		if err != nil {
			return err
		}
		if c2.Mode() != Transparent {
			t.Errorf("mode = %v, want transparent (info overrides)", c2.Mode())
		}
		win3, _ := r.WinAllocate(64, nil)
		defer win3.Free()
		c3, err := New(win3, Params{Mode: AlwaysCache})
		if err != nil {
			return err
		}
		if c3.Mode() != AlwaysCache {
			t.Errorf("mode = %v, want always-cache (params)", c3.Mode())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPendingHitSameEpoch(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst1 := make([]byte, 128)
		dst2 := make([]byte, 128)
		dst3 := make([]byte, 64) // smaller repeat
		if err := c.Get(dst1, datatype.Byte, 128, 1, 256); err != nil {
			return err
		}
		if err := c.Get(dst2, datatype.Byte, 128, 1, 256); err != nil {
			return err
		}
		if a := c.LastAccess(); a.Type != AccessHit || a.Issued {
			t.Errorf("pending hit = %+v", a)
		}
		if err := c.Get(dst3, datatype.Byte, 64, 1, 256); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst1, 256)
		checkData(t, dst2, 256)
		checkData(t, dst3, 256)
		s := c.Stats()
		if s.PendingHits != 2 || s.Hits != 2 || s.Direct != 1 {
			t.Errorf("stats = %+v", s)
		}
		// After the epoch the entry is CACHED: next get is a plain hit.
		dst4 := make([]byte, 128)
		if err := c.Get(dst4, datatype.Byte, 128, 1, 256); err != nil {
			return err
		}
		checkData(t, dst4, 256)
		if a := c.LastAccess(); a.Type != AccessHit || a.Issued {
			t.Errorf("post-epoch hit = %+v", a)
		}
		return win.FlushAll()
	})
}

func TestPartialHitExtendsEntry(t *testing.T) {
	withCache(t, 8192, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		small := make([]byte, 64)
		if err := c.Get(small, datatype.Byte, 64, 1, 512); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		// Larger request at the same displacement: partial hit.
		big := make([]byte, 256)
		if err := c.Get(big, datatype.Byte, 256, 1, 512); err != nil {
			return err
		}
		if a := c.LastAccess(); a.Type != AccessHit || !a.Partial || !a.Issued {
			t.Errorf("partial hit = %+v", a)
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, big, 512)
		// The entry was extended: the same big request is now a full
		// hit with no network.
		big2 := make([]byte, 256)
		if err := c.Get(big2, datatype.Byte, 256, 1, 512); err != nil {
			return err
		}
		if a := c.LastAccess(); a.Type != AccessHit || a.Partial || a.Issued {
			t.Errorf("post-extension access = %+v, want full hit", a)
		}
		checkData(t, big2, 512)
		s := c.Stats()
		if s.PartialHits != 1 || s.FullHits != 1 {
			t.Errorf("stats = %+v", s)
		}
		return win.FlushAll()
	})
}

func TestCapacityEviction(t *testing.T) {
	p := alwaysParams()
	p.StorageBytes = 4 * 256 // room for 4 entries of 256B
	withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 256)
		for i := 0; i < 4; i++ {
			if err := c.Get(dst, datatype.Byte, 256, 1, i*256); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			checkData(t, dst, i*256)
		}
		if c.CachedEntries() != 4 {
			t.Errorf("CachedEntries = %d, want 4", c.CachedEntries())
		}
		// Fifth distinct get: storage is full, one eviction makes room.
		if err := c.Get(dst, datatype.Byte, 256, 1, 4*256); err != nil {
			return err
		}
		if a := c.LastAccess(); a.Type != AccessCapacity {
			t.Errorf("access = %v, want capacity", a.Type)
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst, 4*256)
		if c.CachedEntries() != 4 {
			t.Errorf("CachedEntries after eviction = %d, want 4", c.CachedEntries())
		}
		s := c.Stats()
		if s.Capacity != 1 || s.Evictions != 1 || s.EvictionScans != 1 {
			t.Errorf("stats = %+v", s)
		}
		if s.VisitedSlots < int64(p.SampleSize) && s.VisitedSlots != 0 {
			// v_i = max(M, k_i) >= M whenever a scan ran
			t.Errorf("visited %d slots, want >= M", s.VisitedSlots)
		}
		return nil
	})
}

func TestFailingAccess(t *testing.T) {
	p := alwaysParams()
	p.StorageBytes = 512
	withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		// Larger than the whole buffer: never cacheable, but data
		// must still arrive (weak caching never breaks the get).
		dst := make([]byte, 4096)
		if err := c.Get(dst, datatype.Byte, 4096, 1, 0); err != nil {
			return err
		}
		if a := c.LastAccess(); a.Type != AccessFailing {
			t.Errorf("access = %v, want failing", a.Type)
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst, 0)
		if c.CachedEntries() != 0 {
			t.Errorf("CachedEntries = %d", c.CachedEntries())
		}
		// A failing access repeated still works.
		if err := c.Get(dst, datatype.Byte, 4096, 1, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst, 0)
		if s := c.Stats(); s.Failing != 2 {
			t.Errorf("Failing = %d, want 2", s.Failing)
		}
		return nil
	})
}

func TestConflictingAccess(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 8 // tiny index, huge storage: conflicts guaranteed
	p.StorageBytes = 1 << 20
	withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		for i := 0; i < 64; i++ {
			if err := c.Get(dst, datatype.Byte, 64, 1, i*64); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			checkData(t, dst, i*64)
		}
		s := c.Stats()
		if s.Conflicting == 0 {
			t.Errorf("no conflicting accesses on an 8-slot index after 64 distinct gets: %+v", s)
		}
		if c.CachedEntries() > 8 {
			t.Errorf("CachedEntries = %d > index capacity", c.CachedEntries())
		}
		// A re-get immediately after a (possibly conflicting) insert
		// must hit the just-cached entry and serve correct data.
		hits := 0
		for i := 0; i < 16; i++ {
			if err := c.Get(dst, datatype.Byte, 64, 1, i*64); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			first := c.LastAccess().Type
			if err := c.Get(dst, datatype.Byte, 64, 1, i*64); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			checkData(t, dst, i*64)
			if first != AccessFailing && c.LastAccess().Type == AccessHit {
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("no hits on immediate re-gets with an 8-slot index")
		}
		return nil
	})
}

func TestExplicitInvalidate(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		if err := c.Get(dst, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		c.Invalidate()
		if c.CachedEntries() != 0 {
			t.Errorf("CachedEntries after Invalidate = %d", c.CachedEntries())
		}
		if err := c.Get(dst, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if a := c.LastAccess(); a.Type != AccessDirect {
			t.Errorf("access after invalidate = %v", a.Type)
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst, 0)
		if s := c.Stats(); s.Invalidations != 1 {
			t.Errorf("Invalidations = %d", s.Invalidations)
		}
		return nil
	})
}

func TestInvalidateCancelsPending(t *testing.T) {
	// Invalidate mid-epoch: PENDING copies must be cancelled without
	// corrupting the destination buffers.
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		if err := c.Get(dst, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		c.Invalidate()
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst, 0)
		if c.CachedEntries() != 0 {
			t.Errorf("CachedEntries = %d", c.CachedEntries())
		}
		return nil
	})
}

func TestShortBuffer(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 8)
		if err := c.Get(dst, datatype.Byte, 64, 1, 0); !errors.Is(err, mpi.ErrShortBuf) {
			t.Errorf("short buffer err = %v", err)
		}
		return nil
	})
}

// TestElementTypeMix reads the 32 bytes at disp 64 as 4 Int64, 8 Int32
// and 32 Byte elements. Whichever type fills the entry, the other reads
// are full hits that return the region's bytes, through Get in every
// order and through GetBatch: a transfer is its bytes, whatever its
// element type.
func TestElementTypeMix(t *testing.T) {
	types := []struct {
		dtype datatype.Datatype
		count int
	}{{datatype.Int64, 4}, {datatype.Int32, 8}, {datatype.Byte, 32}}
	// read issues one 32-byte access at disp 64 and checks its bytes and,
	// unless it fills, that it was served from the cache alone.
	read := func(t *testing.T, c *Cache, win *mpi.Win, fills bool, issue func(dst []byte) error) error {
		dst := make([]byte, 32)
		before := c.Stats()
		if err := issue(dst); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, dst, 64)
		if d := c.Stats().Sub(before); !fills && (d.FullHits != d.Gets || d.BytesFromNetwork != 0) {
			t.Errorf("not a full hit: %+v", d)
		}
		return nil
	}
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		name := fmt.Sprintf("Get/%v,%v,%v", types[order[0]].dtype, types[order[1]].dtype, types[order[2]].dtype)
		t.Run(name, func(t *testing.T) {
			withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
				for i, k := range order {
					tc := types[k]
					if err := read(t, c, win, i == 0, func(dst []byte) error {
						return c.Get(dst, tc.dtype, tc.count, 1, 64)
					}); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
	for _, tc := range types {
		t.Run("GetBatch/filled by "+tc.dtype.String(), func(t *testing.T) {
			withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
				// The cached filler makes the batch two ops, so it takes
				// the batch path rather than the single-op Get.
				filler := rma.GetOp{Dst: make([]byte, 64), Target: 1, Disp: 1024}
				if err := c.Get(filler.Dst, datatype.Byte, 64, 1, 1024); err != nil {
					return err
				}
				if err := read(t, c, win, true, func(dst []byte) error {
					return c.Get(dst, tc.dtype, tc.count, 1, 64)
				}); err != nil {
					return err
				}
				return read(t, c, win, false, func(dst []byte) error {
					return c.GetBatch([]rma.GetOp{{Dst: dst, Target: 1, Disp: 64}, filler})
				})
			})
		})
	}
}

func TestAdaptiveGrowsIndexUnderConflicts(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 64
	p.StorageBytes = 1 << 22
	p.Adaptive = true
	p.TuneInterval = 128
	withCache(t, 1<<20, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		// 1000 distinct gets against a 64-slot index: conflict storm.
		for i := 0; i < 1000; i++ {
			if err := c.Get(dst, datatype.Byte, 64, 1, (i%1000)*64); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
		}
		if c.IndexSlots() <= 64 {
			t.Errorf("adaptive index did not grow: %d slots", c.IndexSlots())
		}
		if s := c.Stats(); s.Adjustments == 0 {
			t.Errorf("no adjustments recorded")
		}
		return nil
	})
}

func TestAdaptiveGrowsStorageUnderCapacityPressure(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 4096
	p.StorageBytes = 8 << 10 // 8 KB: far too small for the working set
	p.Adaptive = true
	p.TuneInterval = 128
	withCache(t, 1<<20, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 1024)
		for round := 0; round < 10; round++ {
			for i := 0; i < 64; i++ {
				if err := c.Get(dst, datatype.Byte, 1024, 1, i*1024); err != nil {
					return err
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
			}
		}
		if c.StorageBytes() <= 8<<10 {
			t.Errorf("adaptive storage did not grow: %d bytes", c.StorageBytes())
		}
		return nil
	})
}

func TestAdaptiveDisabledKeepsParameters(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 64
	p.Adaptive = false
	withCache(t, 1<<20, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 64)
		for i := 0; i < 500; i++ {
			if err := c.Get(dst, datatype.Byte, 64, 1, i*64); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
		}
		if c.IndexSlots() != 64 {
			t.Errorf("fixed index changed size: %d", c.IndexSlots())
		}
		if s := c.Stats(); s.Adjustments != 0 {
			t.Errorf("Adjustments = %d", s.Adjustments)
		}
		return nil
	})
}

func TestStatsAccountingIdentity(t *testing.T) {
	// Every get is classified exactly once:
	// Gets == Hits + Direct + Conflicting + Capacity + Failing.
	for _, scheme := range []EvictionScheme{SchemeFull, SchemeTemporal, SchemePositional} {
		p := alwaysParams()
		p.Scheme = scheme
		p.IndexSlots = 32
		p.StorageBytes = 8 << 10
		withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
			rng := rand.New(rand.NewSource(3))
			dst := make([]byte, 2048)
			for i := 0; i < 600; i++ {
				size := 1 << (rng.Intn(11) + 1) // 2..2048
				disp := rng.Intn(1<<16 - size)
				disp = disp / 64 * 64
				if err := c.Get(dst[:size], datatype.Byte, size, 1, disp); err != nil {
					return err
				}
				if rng.Intn(4) == 0 {
					if err := win.FlushAll(); err != nil {
						return err
					}
				}
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			s := c.Stats()
			total := s.Hits + s.Direct + s.Conflicting + s.Capacity + s.Failing
			if total != s.Gets {
				t.Errorf("scheme %v: classified %d of %d gets: %+v", scheme, total, s.Gets, s)
			}
			if s.FullHits+s.PartialHits != s.Hits {
				t.Errorf("scheme %v: hit split %d+%d != %d", scheme, s.FullHits, s.PartialHits, s.Hits)
			}
			return nil
		})
	}
}

func TestRandomizedDataCorrectness(t *testing.T) {
	// The acid test: under heavy eviction pressure, every completed get
	// must deliver exactly the target's bytes, regardless of which
	// accesses hit, missed, or failed. Gets are verified at each epoch
	// closure (MPI semantics: buffers are defined only then).
	for _, scheme := range []EvictionScheme{SchemeFull, SchemeTemporal, SchemePositional} {
		p := alwaysParams()
		p.Scheme = scheme
		p.IndexSlots = 64
		p.StorageBytes = 16 << 10
		p.Seed = int64(scheme) + 11
		withCache(t, 1<<15, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
			rng := rand.New(rand.NewSource(99))
			type issued struct {
				dst  []byte
				disp int
			}
			var open []issued
			for i := 0; i < 800; i++ {
				size := 1 << (rng.Intn(10) + 1)
				disp := rng.Intn(1<<15-size) / 16 * 16
				dst := make([]byte, size)
				if err := c.Get(dst, datatype.Byte, size, 1, disp); err != nil {
					return err
				}
				open = append(open, issued{dst, disp})
				if rng.Intn(3) == 0 {
					if err := win.FlushAll(); err != nil {
						return err
					}
					for _, g := range open {
						checkData(t, g.dst, g.disp)
					}
					open = open[:0]
				}
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			for _, g := range open {
				checkData(t, g.dst, g.disp)
			}
			return nil
		})
	}
}

func TestAccessTypeStrings(t *testing.T) {
	want := map[AccessType]string{
		AccessHit:         "hitting",
		AccessDirect:      "direct",
		AccessConflicting: "conflicting",
		AccessCapacity:    "capacity",
		AccessFailing:     "failing",
		AccessType(99):    "access(99)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if SchemeFull.String() != "full" || SchemeTemporal.String() != "temporal" ||
		SchemePositional.String() != "positional" || EvictionScheme(9).String() != "scheme(9)" {
		t.Errorf("scheme strings wrong")
	}
	if Transparent.String() != "transparent" || AlwaysCache.String() != "always-cache" || Mode(9).String() != "mode(9)" {
		t.Errorf("mode strings wrong")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Gets: 10, Hits: 6, Direct: 2, Conflicting: 1, Capacity: 1,
		EvictionScans: 2, VisitedSlots: 40, NonEmptyVisited: 10}
	if s.HitRate() != 0.6 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
	if s.Rate(AccessHit) != 0.6 || s.Rate(AccessDirect) != 0.2 ||
		s.Rate(AccessConflicting) != 0.1 || s.Rate(AccessCapacity) != 0.1 || s.Rate(AccessFailing) != 0 {
		t.Errorf("Rate wrong: %+v", s)
	}
	if s.AvgVisitedPerEviction() != 20 {
		t.Errorf("AvgVisitedPerEviction = %v", s.AvgVisitedPerEviction())
	}
	if s.AvgNonEmptyVisited() != 0.25 {
		t.Errorf("AvgNonEmptyVisited = %v", s.AvgNonEmptyVisited())
	}
	var zero Stats
	if zero.HitRate() != 0 || zero.Rate(AccessHit) != 0 || zero.AvgVisitedPerEviction() != 0 || zero.AvgNonEmptyVisited() != 0 {
		t.Errorf("zero stats helpers nonzero")
	}
	var sum Stats
	sum.add(&s)
	sum.add(&s)
	if sum.Gets != 20 || sum.Hits != 12 {
		t.Errorf("add: %+v", sum)
	}
}

func TestBytesServedAccounting(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 512)
		if err := c.Get(dst, datatype.Byte, 512, 1, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if err := c.Get(dst, datatype.Byte, 512, 1, 0); err != nil {
			return err
		}
		s := c.Stats()
		if s.BytesFromNetwork != 512 || s.BytesFromCache != 512 {
			t.Errorf("bytes: net=%d cache=%d", s.BytesFromNetwork, s.BytesFromCache)
		}
		return win.FlushAll()
	})
}

func TestTemporalEvictionPrefersCold(t *testing.T) {
	// With SchemeTemporal and a storage of 4 entries, repeatedly
	// touching entries A,B,C keeps them warm; inserting D then E should
	// evict the cold one (A..C stay, since they were re-touched).
	p := alwaysParams()
	p.Scheme = SchemeTemporal
	p.StorageBytes = 4 * 256
	p.IndexSlots = 64
	p.SampleSize = 64 // sample covers the whole index: deterministic victim
	withCache(t, 1<<14, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 256)
		get := func(disp int) error {
			if err := c.Get(dst, datatype.Byte, 256, 1, disp); err != nil {
				return err
			}
			return win.FlushAll()
		}
		for _, d := range []int{0, 256, 512, 768} { // fill: A B C D
			if err := get(d); err != nil {
				return err
			}
		}
		for _, d := range []int{0, 256, 512} { // touch A B C
			if err := get(d); err != nil {
				return err
			}
		}
		if err := get(1024); err != nil { // E evicts D (coldest)
			return err
		}
		if a := c.LastAccess(); a.Type != AccessCapacity {
			t.Errorf("expected capacity access, got %v", a.Type)
			return nil
		}
		// A, B, C must still be hits.
		for _, d := range []int{0, 256, 512} {
			if err := get(d); err != nil {
				return err
			}
			if a := c.LastAccess(); a.Type != AccessHit {
				t.Errorf("disp %d: %v, want hit (D should have been evicted)", d, a.Type)
			}
		}
		return nil
	})
}
