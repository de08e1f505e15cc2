package mpi

import (
	"testing"

	"clampi/internal/datatype"
)

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
