package clampi

import (
	"testing"
)

// TestPublicAPIQuickstart exercises the documented happy path end to end:
// wrap a window, miss, flush, hit.
func TestPublicAPIQuickstart(t *testing.T) {
	err := Run(4, RunConfig{}, func(r *Rank) error {
		region := make([]byte, 4096)
		for i := range region {
			region[i] = byte(r.ID() + i)
		}
		w, err := Create(r, region, nil, WithMode(AlwaysCache), WithSeed(1))
		if err != nil {
			return err
		}
		defer w.Free()
		if err := w.LockAll(); err != nil {
			return err
		}
		target := (r.ID() + 1) % r.Size()
		buf := make([]byte, 512)
		if err := w.GetBytes(buf, target, 64); err != nil {
			return err
		}
		if err := w.FlushAll(); err != nil {
			return err
		}
		for i, b := range buf {
			if want := byte(target + 64 + i); b != want {
				t.Errorf("rank %d byte %d: got %d want %d", r.ID(), i, b, want)
			}
		}
		// Repeat: full hit.
		if err := w.GetBytes(buf, target, 64); err != nil {
			return err
		}
		if a := w.LastAccess(); a.Type != AccessHit || a.Issued {
			t.Errorf("repeat access = %+v, want hit", a)
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		if s := w.Stats(); s.Gets != 2 || s.Hits != 1 {
			t.Errorf("stats = %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocateAndOptions(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		w, local, err := Allocate(r, 1024, nil,
			WithMode(AlwaysCache),
			WithIndexSlots(128),
			WithStorageBytes(1<<16),
			WithScheme(SchemeTemporal),
			WithSampleSize(8),
			WithSeed(3),
		)
		if err != nil {
			return err
		}
		defer w.Free()
		if len(local) != 1024 || len(w.Local()) != 1024 {
			t.Errorf("local region %d/%d bytes", len(local), len(w.Local()))
		}
		if w.IndexSlots() != 128 {
			t.Errorf("IndexSlots = %d", w.IndexSlots())
		}
		if w.StorageBytes() != 1<<16 {
			t.Errorf("StorageBytes = %d", w.StorageBytes())
		}
		if w.Mode() != AlwaysCache {
			t.Errorf("Mode = %v", w.Mode())
		}
		if w.Raw() == nil {
			t.Errorf("Raw() nil")
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWithParamsComposition(t *testing.T) {
	err := Run(1, RunConfig{}, func(r *Rank) error {
		base := Params{IndexSlots: 256, StorageBytes: 1 << 14, Mode: AlwaysCache}
		w, _, err := Allocate(r, 64, nil, WithParams(base), WithIndexSlots(512))
		if err != nil {
			return err
		}
		defer w.Free()
		if w.IndexSlots() != 512 {
			t.Errorf("later option did not win: %d", w.IndexSlots())
		}
		if w.StorageBytes() != 1<<14 {
			t.Errorf("base param lost: %d", w.StorageBytes())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInfoKeyOnPublicAPI(t *testing.T) {
	err := Run(1, RunConfig{}, func(r *Rank) error {
		w, _, err := Allocate(r, 64, Info{InfoKey: "always-cache"})
		if err != nil {
			return err
		}
		defer w.Free()
		if w.Mode() != AlwaysCache {
			t.Errorf("Mode = %v, want AlwaysCache from info key", w.Mode())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserDefinedModeListing1(t *testing.T) {
	// The paper's Listing 1: a loop of read-only epochs delimited by
	// Lock/Unlock, with gets cached across flushes and an explicit
	// invalidate before the final unlock.
	err := Run(2, RunConfig{}, func(r *Rank) error {
		region := make([]byte, 2048)
		for i := range region {
			region[i] = byte(i * 3)
		}
		w, err := Create(r, region, nil, WithMode(AlwaysCache))
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() == 0 {
			peer := 1
			if err := w.Lock(peer); err != nil {
				return err
			}
			lbuf1 := make([]byte, 256)
			lbuf2 := make([]byte, 256)
			for iter := 0; iter < 5; iter++ {
				if err := w.GetBytes(lbuf1, peer, 0); err != nil {
					return err
				}
				if err := w.GetBytes(lbuf2, peer, 1024); err != nil {
					return err
				}
				if err := w.Flush(peer); err != nil { // closes epoch
					return err
				}
				for i := range lbuf1 {
					if lbuf1[i] != byte(i*3) || lbuf2[i] != byte((1024+i)*3) {
						t.Fatalf("iter %d: wrong data", iter)
					}
				}
			}
			w.Invalidate()
			if err := w.Unlock(peer); err != nil {
				return err
			}
			s := w.Stats()
			if s.Gets != 10 || s.Hits != 8 {
				t.Errorf("stats = %+v, want 10 gets / 8 hits", s)
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutPassthrough(t *testing.T) {
	err := Run(2, RunConfig{}, func(r *Rank) error {
		w, local, err := Allocate(r, 256, nil, WithMode(AlwaysCache))
		if err != nil {
			return err
		}
		defer w.Free()
		if err := w.LockAll(); err != nil {
			return err
		}
		if r.ID() == 0 {
			src := []byte{9, 8, 7}
			if err := w.Put(src, Byte, 3, 1, 10); err != nil {
				return err
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()
		if r.ID() == 1 {
			if local[10] != 9 || local[11] != 8 || local[12] != 7 {
				t.Errorf("put data missing: %v", local[10:13])
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTwoWindowIdiom(t *testing.T) {
	// Paper §III-A: two windows over the same memory, only one caching,
	// let the user choose per-operation caching.
	err := Run(2, RunConfig{}, func(r *Rank) error {
		region := make([]byte, 256)
		for i := range region {
			region[i] = byte(i)
		}
		cached, err := Create(r, region, nil, WithMode(AlwaysCache))
		if err != nil {
			return err
		}
		defer cached.Free()
		raw := r.WinCreate(region, nil)
		defer raw.Free()

		if r.ID() == 0 {
			if err := cached.LockAll(); err != nil {
				return err
			}
			if err := raw.LockAll(); err != nil {
				return err
			}
			buf := make([]byte, 64)
			if err := cached.GetBytes(buf, 1, 0); err != nil {
				return err
			}
			if err := cached.FlushAll(); err != nil {
				return err
			}
			// The raw window never caches.
			if err := raw.Get(buf, Byte, 64, 1, 0); err != nil {
				return err
			}
			if err := raw.FlushAll(); err != nil {
				return err
			}
			if err := cached.UnlockAll(); err != nil {
				return err
			}
			if err := raw.UnlockAll(); err != nil {
				return err
			}
			if s := cached.Stats(); s.Gets != 1 {
				t.Errorf("cached window saw %d gets, want 1", s.Gets)
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDatatypeReexports(t *testing.T) {
	if Byte.Size() != 1 || Int32.Size() != 4 || Int64.Size() != 8 || Double.Size() != 8 {
		t.Fatalf("basic datatype sizes wrong")
	}
	if DefaultNetModel() == nil {
		t.Fatalf("DefaultNetModel nil")
	}
}
