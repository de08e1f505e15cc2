package core

import (
	"fmt"
	"math/rand"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
)

// TestIntegrityUnderRandomWorkload hammers the cache with random get
// sequences, epoch closures and invalidations under several parameter
// regimes, validating the full cross-structure invariants at every epoch
// boundary and the delivered data at every flush.
func TestIntegrityUnderRandomWorkload(t *testing.T) {
	regimes := []Params{
		{Mode: AlwaysCache, IndexSlots: 4096, StorageBytes: 1 << 20, Seed: 1}, // ample
		{Mode: AlwaysCache, IndexSlots: 32, StorageBytes: 1 << 20, Seed: 2},   // index-bound
		{Mode: AlwaysCache, IndexSlots: 4096, StorageBytes: 8 << 10, Seed: 3}, // capacity-bound
		{Mode: AlwaysCache, IndexSlots: 16, StorageBytes: 4 << 10, Seed: 4},   // both bound
		{Mode: Transparent, IndexSlots: 256, StorageBytes: 64 << 10, Seed: 5}, // transparent
		{Mode: AlwaysCache, IndexSlots: 128, StorageBytes: 32 << 10, Seed: 6, // adaptive
			Adaptive: true, TuneInterval: 64},
		{Mode: AlwaysCache, IndexSlots: 128, StorageBytes: 32 << 10, Seed: 7,
			Scheme: SchemeTemporal},
		{Mode: AlwaysCache, IndexSlots: 128, StorageBytes: 32 << 10, Seed: 8,
			Scheme: SchemePositional},
		{Mode: AlwaysCache, IndexSlots: 256, StorageBytes: 64 << 10, Seed: 9},
	}
	for ri, params := range regimes {
		params := params
		withCache(t, 1<<15, params, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
			rng := rand.New(rand.NewSource(int64(ri) * 131))
			type inflight struct {
				dst  []byte
				disp int
			}
			var open []inflight
			for i := 0; i < 500; i++ {
				switch rng.Intn(10) {
				case 0: // invalidate mid-stream
					c.Invalidate()
				case 1, 2: // close the epoch and verify all data
					if err := win.FlushAll(); err != nil {
						return err
					}
					for _, g := range open {
						checkData(t, g.dst, g.disp)
					}
					open = open[:0]
					if err := c.CheckIntegrity(); err != nil {
						return fmt.Errorf("regime %d after flush %d: %w", ri, i, err)
					}
				default: // issue a get
					size := 1 << (rng.Intn(10) + 1)
					disp := rng.Intn(1<<15-size) / 16 * 16
					dst := make([]byte, size)
					if err := c.Get(dst, datatype.Byte, size, 1, disp); err != nil {
						return err
					}
					open = append(open, inflight{dst, disp})
				}
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			for _, g := range open {
				checkData(t, g.dst, g.disp)
			}
			if err := c.CheckIntegrity(); err != nil {
				return fmt.Errorf("regime %d final: %w", ri, err)
			}
			// Sanity: the classification identity holds in every regime.
			s := c.Stats()
			if s.Hits+s.Direct+s.Conflicting+s.Capacity+s.Failing != s.Gets {
				return fmt.Errorf("regime %d: classification identity broken: %+v", ri, s)
			}
			return nil
		})
	}
}

// TestIntegrityAfterEviction checks invariants right after forced
// capacity and conflict evictions (not just at epoch boundaries).
func TestIntegrityAfterEviction(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 16
	p.StorageBytes = 2 << 10
	withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 512)
		for i := 0; i < 64; i++ {
			if err := c.Get(dst, datatype.Byte, 512, 1, i*512); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			if err := c.CheckIntegrity(); err != nil {
				return fmt.Errorf("after get %d: %w", i, err)
			}
		}
		s := c.Stats()
		if s.Evictions == 0 {
			return fmt.Errorf("no evictions triggered: %+v", s)
		}
		return nil
	})
}
