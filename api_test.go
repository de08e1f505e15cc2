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

// TestNotifyKeepsCacheAcrossClosure: a Transparent-mode window created
// WithNotify keeps its cache across an epoch closure and drops or
// patches only the span another rank wrote with PutNotify. Without the
// subscription the closure would empty the cache.
func TestNotifyKeepsCacheAcrossClosure(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		w, local, err := Allocate(r, 256, nil, WithMode(Transparent), WithNotify())
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() == 1 {
			for i := range local {
				local[i] = byte(i)
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		head, tail := make([]byte, 64), make([]byte, 64)
		if r.ID() == 0 {
			if err := w.GetBytes(head, 1, 0); err != nil {
				return err
			}
			if err := w.GetBytes(tail, 1, 128); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if r.ID() == 1 {
			fresh := make([]byte, 64)
			for i := range fresh {
				fresh[i] = 0xEE
			}
			if err := w.PutNotify(fresh, Byte, len(fresh), 1, 128, 7); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := w.GetBytes(head, 1, 0); err != nil {
				return err
			}
			if a := w.LastAccess(); a.Type != AccessHit || a.Partial || a.Issued {
				t.Errorf("unwritten span after the closure: %+v, want a full hit", a)
			}
			for i, b := range head {
				if b != byte(i) {
					t.Errorf("head[%d] = %#x, want %#x", i, b, byte(i))
					break
				}
			}
			if err := w.GetBytes(tail, 1, 128); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if r.ID() == 0 {
			for i, b := range tail {
				if b != 0xEE {
					t.Errorf("tail[%d] = %#x, want the written 0xee", i, b)
					break
				}
			}
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
