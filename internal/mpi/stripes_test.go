package mpi

import (
	"testing"

	"clampi/internal/datatype"
)

// TestStripeGranularity proves data-path locking is
// per-(target, region-stripe), not per-target: with one stripe of the
// target region held exclusively, a Get touching a *different* stripe
// completes, and two Gets of the *same* stripe proceed concurrently
// (read locks). A per-target mutex would deadlock this test.
func TestStripeGranularity(t *testing.T) {
	const p = 2
	const regionSize = 1 << 13 // 8 KiB → 8 stripes of 1 KiB
	err := Run(p, Config{}, func(r *Rank) error {
		region := make([]byte, regionSize)
		for i := range region {
			region[i] = byte(i)
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		r.Barrier()
		if r.ID() != 0 {
			r.Barrier() // matches rank 0's closing barrier
			return nil
		}

		if err := win.LockAll(); err != nil {
			return err
		}
		const width = regionSize / 8

		// Hold stripe 0 of target 1 exclusively; read from stripe 1.
		win.shared.stripes.Lock(1, 0, 1, true)
		buf := make([]byte, 64)
		if err := win.Get(buf, datatype.Byte, 64, 1, width); err != nil { //clampi:lockorder structural proof: the Get targets stripe 1 while the test pins stripe 0, showing stripes are independent
			return err
		}
		win.shared.stripes.Unlock(1, 0, 1, true)
		for i := range buf {
			if buf[i] != byte(width+i) {
				return errBadByte{rank: 0, target: 1, off: i}
			}
		}

		// Hold stripe 0 shared; a Get of the same stripe still completes.
		win.shared.stripes.Lock(1, 0, 1, false)
		if err := win.Get(buf, datatype.Byte, 64, 1, 0); err != nil { //clampi:lockorder structural proof: the held RLock is shared, so the Get's RLock of the same stripe cannot deadlock
			return err
		}
		win.shared.stripes.Unlock(1, 0, 1, false)
		for i := range buf {
			if buf[i] != byte(i) {
				return errBadByte{rank: 0, target: 1, off: i}
			}
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStripeSpanningWrite proves a Put crossing stripe boundaries stays
// atomic with respect to a spanning Get: readers see either the old or
// the new bytes across the whole span, never a mix, because both sides
// acquire every covered stripe (in ascending order) before touching data.
func TestStripeSpanningWrite(t *testing.T) {
	const p = 4
	const regionSize = 1 << 12 // 4 KiB → 8 stripes of 512 B
	const span = 1024          // crosses two stripe boundaries at disp 256
	const disp = 256
	err := Run(p, Config{}, func(r *Rank) error {
		region := make([]byte, regionSize)
		win := r.WinCreate(region, nil)
		defer win.Free()
		r.Barrier()
		if err := win.LockAll(); err != nil {
			return err
		}
		src := make([]byte, span)
		buf := make([]byte, span)
		for iter := 0; iter < 200; iter++ {
			if r.ID()%2 == 0 {
				fill := byte(r.ID()*100 + iter%100)
				for i := range src {
					src[i] = fill
				}
				if err := win.Put(src, datatype.Byte, span, 0, disp); err != nil {
					return err
				}
			} else {
				if err := win.Get(buf, datatype.Byte, span, 0, disp); err != nil {
					return err
				}
				first := buf[0]
				for i := range buf {
					if buf[i] != first {
						return errBadByte{rank: r.ID(), target: 0, off: i}
					}
				}
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
