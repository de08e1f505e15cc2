package core

import (
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
)

// FuzzRangeInvalidation drives Put through the cache against a model of
// the target region: whatever the overlap between previously cached
// spans and the written range, a later Get must never observe stale
// cached bytes. This fuzzes the overlap and cover predicates and the
// waiter handling of cohere (range.go) end to end, and checks the cache's
// integrity — slot records included — after every operation.
func FuzzRangeInvalidation(f *testing.F) {
	f.Add(uint16(128), uint8(200), uint16(300), uint8(8), uint16(180), uint8(120))
	f.Add(uint16(0), uint8(1), uint16(4095), uint8(1), uint16(0), uint8(255))
	f.Add(uint16(500), uint8(64), uint16(500), uint8(64), uint16(500), uint8(64))
	f.Add(uint16(4000), uint8(255), uint16(100), uint8(0), uint16(4090), uint8(64))
	// The ordered view's seek starts maxPayload-1 bytes before the written
	// span (range.go): a 256 B entry whose last byte alone is written and
	// whose start is exactly the seek key, the same entry merely abutted,
	// a write abutting both entries from below, and a short entry nested
	// in a long one where only the long one reaches the write.
	f.Add(uint16(100), uint8(255), uint16(360), uint8(7), uint16(355), uint8(0))
	f.Add(uint16(100), uint8(255), uint16(360), uint8(7), uint16(356), uint8(0))
	f.Add(uint16(100), uint8(255), uint16(101), uint8(9), uint16(99), uint8(0))
	f.Add(uint16(200), uint8(99), uint16(250), uint8(9), uint16(260), uint8(49))
	// A put exactly covering one entry while a second entry overlaps the
	// same bytes: the covered entry is patched, the other must still go.
	f.Add(uint16(400), uint8(199), uint16(500), uint8(64), uint16(500), uint8(64))

	f.Fuzz(func(t *testing.T, d1 uint16, s1 uint8, d2 uint16, s2 uint8, pd uint16, ps uint8) {
		const regionSize = 4096
		clampSpan := func(d uint16, s uint8) (disp, size int) {
			disp = int(d) % regionSize
			size = int(s) + 1
			if disp+size > regionSize {
				size = regionSize - disp
			}
			return disp, size
		}
		gd1, gs1 := clampSpan(d1, s1)
		gd2, gs2 := clampSpan(d2, s2)
		pdisp, psize := clampSpan(pd, ps)

		withCache(t, regionSize, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
			checked := func(err error) error {
				if err != nil {
					return err
				}
				return c.CheckIntegrity()
			}
			// model mirrors what the target region must contain.
			model := make([]byte, regionSize)
			for i := range model {
				model[i] = pattern(i)
			}

			// Cache two spans so the put below may overlap CACHED
			// entries fully, partially, or not at all.
			for _, span := range [][2]int{{gd1, gs1}, {gd2, gs2}} {
				buf := make([]byte, span[1])
				if err := checked(c.Get(buf, datatype.Byte, span[1], 1, span[0])); err != nil {
					return err
				}
				if err := checked(win.Flush(1)); err != nil {
					return err
				}
			}

			// Write through the cache; overlapping entries must drop.
			src := make([]byte, psize)
			for i := range src {
				src[i] = ^pattern(pdisp + i)
			}
			if err := checked(c.Put(src, datatype.Byte, psize, 1, pdisp)); err != nil {
				return err
			}
			if err := checked(win.Flush(1)); err != nil {
				return err
			}
			copy(model[pdisp:pdisp+psize], src)

			// Every span re-read through the cache must match the
			// model — a stale byte means the invalidation missed an
			// overlap.
			for _, span := range [][2]int{{gd1, gs1}, {gd2, gs2}, {pdisp, psize}} {
				buf := make([]byte, span[1])
				if err := checked(c.Get(buf, datatype.Byte, span[1], 1, span[0])); err != nil {
					return err
				}
				if err := checked(win.Flush(1)); err != nil {
					return err
				}
				for i, b := range buf {
					if b != model[span[0]+i] {
						t.Errorf("stale byte at disp %d+%d: got %#x want %#x (put [%d,%d))",
							span[0], i, b, model[span[0]+i], pdisp, pdisp+psize)
						return nil
					}
				}
			}
			return nil
		})
	})
}
