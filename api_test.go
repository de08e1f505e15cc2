package clampi

import (
	"testing"
)

func TestGetUncachedBypassesCache(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		region := make([]byte, 256)
		for i := range region {
			region[i] = byte(i)
		}
		w, err := Create(r, region, nil, WithMode(AlwaysCache))
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() == 0 {
			if err := w.LockAll(); err != nil {
				return err
			}
			buf := make([]byte, 64)
			if err := w.GetUncached(buf, Byte, 64, 1, 0); err != nil {
				return err
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
			for i := range buf {
				if buf[i] != byte(i) {
					t.Errorf("byte %d = %d", i, buf[i])
					break
				}
			}
			if s := w.Stats(); s.Gets != 0 {
				t.Errorf("uncached get reached the cache: %d gets", s.Gets)
			}
			if w.CachedEntries() != 0 {
				t.Errorf("uncached get populated the cache")
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutInvalidatesThroughPublicAPI(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		w, local, err := Allocate(r, 512, nil, WithMode(AlwaysCache))
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() == 1 {
			for i := range local {
				local[i] = byte(i)
			}
		}
		r.Barrier()
		if r.ID() == 0 {
			if err := w.LockAll(); err != nil {
				return err
			}
			buf := make([]byte, 64)
			if err := w.GetBytes(buf, 1, 0); err != nil {
				return err
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
			if w.CachedEntries() != 1 {
				t.Errorf("CachedEntries = %d", w.CachedEntries())
			}
			// Overlapping put drops the entry.
			if err := w.Put([]byte{9, 9}, Byte, 2, 1, 32); err != nil {
				return err
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
			if w.CachedEntries() != 0 {
				t.Errorf("entry survived overlapping Put")
			}
			// Re-get sees the new bytes.
			if err := w.GetBytes(buf, 1, 0); err != nil {
				return err
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
			if buf[32] != 9 || buf[33] != 9 || buf[0] != 0 {
				t.Errorf("refetched data wrong: %v", buf[30:36])
			}
			// Explicit range invalidation of a non-overlapping range
			// is a no-op.
			if n := w.InvalidateRange(1, 400, 16); n != 0 {
				t.Errorf("InvalidateRange dropped %d", n)
			}
			if n := w.InvalidateRange(1, 0, 512); n != 1 {
				t.Errorf("InvalidateRange dropped %d, want 1", n)
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowGetWithElementDatatype(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		region := make([]byte, 256)
		for i := range region {
			region[i] = byte(i)
		}
		w, err := Create(r, region, nil, WithMode(AlwaysCache))
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() == 0 {
			if err := w.LockAll(); err != nil {
				return err
			}
			buf := make([]byte, 4*Int32.Size())
			if err := w.Get(buf, Int32, 4, 1, 16); err != nil {
				return err
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
			for k := range buf {
				if want := byte(16 + k); buf[k] != want {
					t.Errorf("byte %d = %d, want %d", k, buf[k], want)
				}
			}
			// Repeat hits.
			if err := w.Get(buf, Int32, 4, 1, 16); err != nil {
				return err
			}
			if a := w.LastAccess(); a.Type != AccessHit {
				t.Errorf("repeat = %v", a.Type)
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowFence(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		w, local, err := Allocate(r, 64, nil, WithMode(Transparent))
		if err != nil {
			return err
		}
		defer w.Free()
		if err := w.Fence(); err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := w.Put([]byte{7}, Byte, 1, 1, 3); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if r.ID() == 1 && local[3] != 7 {
			t.Errorf("fence did not complete the put: %d", local[3])
		}
		buf := make([]byte, 1)
		if err := w.Get(buf, Byte, 1, 1-r.ID(), 3); err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveOptionThroughPublicAPI(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		w, _, err := Allocate(r, 1<<16, nil,
			WithMode(AlwaysCache), WithAdaptive(), WithIndexSlots(64),
			WithParams(Params{Mode: AlwaysCache, Adaptive: true, IndexSlots: 64, TuneInterval: 64}))
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() == 0 {
			if err := w.LockAll(); err != nil {
				return err
			}
			buf := make([]byte, 64)
			for i := 0; i < 600; i++ {
				if err := w.GetBytes(buf, 1, (i%512)*64); err != nil {
					return err
				}
				if err := w.FlushAll(); err != nil {
					return err
				}
			}
			if w.IndexSlots() <= 64 {
				t.Errorf("adaptive index did not grow through public API: %d", w.IndexSlots())
			}
			if w.Occupancy() <= 0 {
				t.Errorf("Occupancy = %v", w.Occupancy())
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsRateHelpers(t *testing.T) {
	s := Stats{Gets: 4, Hits: 2, Direct: 1, Failing: 1}
	if s.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v", s.HitRate())
	}
	if s.Rate(AccessFailing) != 0.25 {
		t.Fatalf("Rate(failing) = %v", s.Rate(AccessFailing))
	}
	if AccessHit.String() != "hitting" || Transparent.String() != "transparent" ||
		SchemeFull.String() != "full" {
		t.Fatalf("string re-exports broken")
	}
}

func TestPublicAccumulateAndExclusiveLock(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		w, local, err := Allocate(r, 64, nil, WithMode(AlwaysCache))
		if err != nil {
			return err
		}
		defer w.Free()

		// Fence epoch: rank 0 accumulates into rank 1's region.
		if err := w.Fence(); err != nil {
			return err
		}
		if r.ID() == 0 {
			one := make([]byte, 8)
			one[0] = 2 // int64(2) little-endian
			if err := w.Accumulate(one, Int64, 1, 1, 0, OpSum); err != nil {
				return err
			}
			if err := w.Accumulate(one, Int64, 1, 1, 0, OpSum); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if r.ID() == 1 && local[0] != 4 {
			t.Errorf("accumulated value = %d, want 4", local[0])
		}

		// Exclusive lock epoch through the public API.
		if err := w.LockWithType(LockExclusive, 1-r.ID()); err != nil {
			return err
		}
		buf := make([]byte, 8)
		if err := w.GetBytes(buf, 1-r.ID(), 0); err != nil {
			return err
		}
		if err := w.Unlock(1 - r.ID()); err != nil {
			return err
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchStatsAccounting pins down the counter contract of
// Window.Prefetch: each call increments Prefetches and its payload is
// charged to BytesFromNetwork; the warmed Get serves from cache, adding
// to BytesFromCache only.
func TestPrefetchStatsAccounting(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		w, local, err := Allocate(r, 1024, nil, WithMode(AlwaysCache), WithSeed(1))
		if err != nil {
			return err
		}
		defer w.Free()
		for i := range local {
			local[i] = byte(r.ID())
		}
		r.Barrier()

		target := (r.ID() + 1) % r.Size()
		if err := w.LockAll(); err != nil {
			return err
		}
		if err := w.Prefetch(target, 0, 256); err != nil {
			return err
		}
		if err := w.Prefetch(target, 256, 128); err != nil {
			return err
		}
		if err := w.Prefetch(target, 0, 0); err != nil { // no-op, not counted
			return err
		}
		if err := w.FlushAll(); err != nil { // epoch closure: entries become CACHED
			return err
		}
		before := w.Stats()
		if before.Prefetches != 2 {
			t.Errorf("Prefetches = %d, want 2", before.Prefetches)
		}
		if before.BytesFromNetwork != 256+128 {
			t.Errorf("BytesFromNetwork = %d, want %d", before.BytesFromNetwork, 256+128)
		}
		if before.BytesFromCache != 0 {
			t.Errorf("BytesFromCache = %d before any user Get", before.BytesFromCache)
		}

		// The warmed range now serves locally: no new network bytes.
		buf := make([]byte, 256)
		if err := w.GetBytes(buf, target, 0); err != nil {
			return err
		}
		if a := w.LastAccess(); a.Type != AccessHit || a.Issued {
			t.Errorf("post-prefetch access = %+v, want unissued hit", a)
		}
		delta := w.Stats().Sub(before)
		if delta.Gets != 1 || delta.Hits != 1 || delta.Prefetches != 0 {
			t.Errorf("delta = %+v, want exactly one hitting get", delta)
		}
		if delta.BytesFromNetwork != 0 || delta.BytesFromCache != 256 {
			t.Errorf("delta bytes network=%d cache=%d, want 0/256",
				delta.BytesFromNetwork, delta.BytesFromCache)
		}
		for _, b := range buf {
			if b != byte(target) {
				t.Errorf("prefetched data corrupt: got %d want %d", b, target)
				break
			}
		}
		return w.UnlockAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}
