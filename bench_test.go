// Per-operation benchmarks: the real CPU cost of the implementation's
// primitives, complementing the virtual-time figures that `clampi`
// (cmd/clampi) prints and its golden tests pin.
//
//	go test -bench=Op -benchmem
package clampi_test

import (
	"testing"

	"clampi"
)

// benchWorld runs fn on rank 0 of a 2-rank world with a caching window
// over a 1 MB target region.
func benchWorld(b *testing.B, opts []clampi.Option, fn func(w *clampi.Window) error) {
	b.Helper()
	err := clampi.Run(2, clampi.RunConfig{}, func(r *clampi.Rank) error {
		w, _, err := clampi.Allocate(r, 1<<20, nil, opts...)
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() == 0 {
			if err := w.LockAll(); err != nil {
				return err
			}
			if err := fn(w); err != nil {
				return err
			}
			if err := w.UnlockAll(); err != nil {
				return err
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOpCachedGetHit(b *testing.B) {
	opts := []clampi.Option{clampi.WithMode(clampi.AlwaysCache), clampi.WithStorageBytes(1 << 20)}
	benchWorld(b, opts, func(w *clampi.Window) error {
		buf := make([]byte, 4096)
		if err := w.GetBytes(buf, 1, 0); err != nil {
			return err
		}
		if err := w.FlushAll(); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.GetBytes(buf, 1, 0); err != nil {
				return err
			}
		}
		return w.FlushAll()
	})
}

// BenchmarkOpCachedGetHitObserved is BenchmarkOpCachedGetHit with a full
// Collector (registry + trace ring) installed. Comparing the two
// validates the acceptance criterion that the no-observer Get path stays
// within noise and quantifies the per-event cost when observing.
func BenchmarkOpCachedGetHitObserved(b *testing.B) {
	col := clampi.NewCollector(clampi.NewRegistry(), clampi.NewRing(0))
	opts := []clampi.Option{
		clampi.WithMode(clampi.AlwaysCache),
		clampi.WithStorageBytes(1 << 20),
		clampi.WithObserver(col),
	}
	benchWorld(b, opts, func(w *clampi.Window) error {
		buf := make([]byte, 4096)
		if err := w.GetBytes(buf, 1, 0); err != nil {
			return err
		}
		if err := w.FlushAll(); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.GetBytes(buf, 1, 0); err != nil {
				return err
			}
		}
		return w.FlushAll()
	})
}

func BenchmarkOpCachedGetMiss(b *testing.B) {
	opts := []clampi.Option{clampi.WithMode(clampi.AlwaysCache), clampi.WithStorageBytes(64 << 20), clampi.WithIndexSlots(1 << 21)}
	benchWorld(b, opts, func(w *clampi.Window) error {
		buf := make([]byte, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.GetBytes(buf, 1, (i%16000)*64); err != nil {
				return err
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
			if i%16000 == 15999 {
				b.StopTimer()
				w.Invalidate()
				b.StartTimer()
			}
		}
		return nil
	})
}

func BenchmarkOpRawGet(b *testing.B) {
	benchWorld(b, nil, func(w *clampi.Window) error {
		buf := make([]byte, 4096)
		raw := w.Raw()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := raw.Get(buf, clampi.Byte, len(buf), 1, 0); err != nil {
				return err
			}
			if err := raw.FlushAll(); err != nil {
				return err
			}
		}
		return nil
	})
}

func BenchmarkOpInvalidate(b *testing.B) {
	opts := []clampi.Option{clampi.WithMode(clampi.AlwaysCache), clampi.WithIndexSlots(4096)}
	benchWorld(b, opts, func(w *clampi.Window) error {
		buf := make([]byte, 64)
		for i := 0; i < 256; i++ {
			if err := w.GetBytes(buf, 1, i*64); err != nil {
				return err
			}
		}
		if err := w.FlushAll(); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Invalidate()
		}
		return nil
	})
}
