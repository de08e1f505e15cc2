package core

import (
	"bytes"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/schedtest"
)

// batchOpsMix is a workload exercising every batch classification: cold
// misses, adjacent runs, overlapping ranges, duplicate keys, a gap, and
// (on the second round) hits.
func batchOpsMix(dst []byte) []rma.GetOp {
	cut := func(lo, n int) []byte { return dst[lo : lo+n : lo+n] }
	return []rma.GetOp{
		{Dst: cut(0, 64), Target: 1, Disp: 64},     // run A head
		{Dst: cut(64, 64), Target: 1, Disp: 128},   // adjacent: extends A
		{Dst: cut(128, 32), Target: 1, Disp: 160},  // overlaps A's tail
		{Dst: cut(160, 64), Target: 1, Disp: 512},  // gap: run B
		{Dst: cut(224, 64), Target: 1, Disp: 512},  // duplicate key of B
		{Dst: cut(288, 16), Target: 1, Disp: 1024}, // run C
	}
}

// TestGetBatchEquivalence checks that a coalesced batch delivers the
// same bytes as the same ops issued as sequential Gets, in fewer
// messages than it has misses.
func TestGetBatchEquivalence(t *testing.T) {
	const regionSize = 4096
	run := func(batch bool) (out []byte, st Stats) {
		withCache(t, regionSize, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
			dst := make([]byte, 512)
			for round := 0; round < 2; round++ { // round 2 hits
				ops := batchOpsMix(dst)
				if batch {
					if err := c.GetBatch(ops); err != nil {
						return err
					}
				} else {
					for i := range ops {
						op := &ops[i]
						if err := c.Get(op.Dst, datatype.Byte, len(op.Dst), op.Target, op.Disp); err != nil {
							return err
						}
					}
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
				if round == 0 {
					out = append([]byte(nil), dst...)
				} else if !bytes.Equal(out, dst) {
					t.Errorf("round 2 bytes differ from round 1")
				}
			}
			st = c.Stats()
			return nil
		})
		return out, st
	}

	seqBytes, _ := run(false)
	coalBytes, coalStats := run(true)

	if !bytes.Equal(seqBytes, coalBytes) {
		t.Errorf("coalesced batch bytes differ from sequential gets")
	}
	if coalStats.BatchMessages >= coalStats.BatchMisses {
		t.Errorf("coalescing issued %d messages for %d misses", coalStats.BatchMessages, coalStats.BatchMisses)
	}
	// Verify the delivered payloads against the target's pattern.
	for _, ref := range []struct{ lo, n, disp int }{
		{0, 64, 64}, {64, 64, 128}, {128, 32, 160}, {160, 64, 512}, {224, 64, 512}, {288, 16, 1024},
	} {
		checkData(t, seqBytes[ref.lo:ref.lo+ref.n], ref.disp)
	}
}

// TestGetBatchCoalescingOracle pins the merge rule: the number of remote
// messages equals the number of maximal adjacent-or-overlapping runs per
// target, and the bytes fetched equal the merged extents.
func TestGetBatchCoalescingOracle(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 512)
		ops := batchOpsMix(dst)
		if err := c.GetBatch(ops); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		st := c.Stats()
		// Runs: [64,192) ∪ overlap, [512,576) with one duplicate, [1024,1040).
		if st.BatchMessages != 3 {
			t.Errorf("BatchMessages = %d, want 3", st.BatchMessages)
		}
		if st.BatchMisses != 6 {
			t.Errorf("BatchMisses = %d, want 6", st.BatchMisses)
		}
		if want := int64(128 + 64 + 16); st.BytesFromNetwork != want {
			t.Errorf("BytesFromNetwork = %d, want %d", st.BytesFromNetwork, want)
		}
		if st.PendingHits != 1 {
			t.Errorf("PendingHits = %d, want 1 (duplicate key)", st.PendingHits)
		}
		if got, want := st.BatchCoalesceRatio(), 2.0; got != want {
			t.Errorf("BatchCoalesceRatio = %v, want %v", got, want)
		}
		// A second identical batch is all full hits: no new messages.
		before := st.BatchMessages
		if err := c.GetBatch(batchOpsMix(dst)); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		st = c.Stats()
		if st.BatchMessages != before {
			t.Errorf("hit-round issued %d new messages", st.BatchMessages-before)
		}
		if st.FullHits < 6 {
			t.Errorf("FullHits = %d after hit round, want >= 6", st.FullHits)
		}
		return nil
	})
}

// TestGetBatchMultiTarget checks per-target coalescing: interleaved ops
// against two targets merge within each target only.
func TestGetBatchMultiTarget(t *testing.T) {
	err := mpi.Run(3, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 1024)
		if r.ID() != 0 {
			for i := range region {
				region[i] = pattern(i + r.ID())
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			fnErr = func() error {
				c, err := New(win, alwaysParams())
				if err != nil {
					return err
				}
				if err := win.LockAll(); err != nil {
					return err
				}
				dst := make([]byte, 256)
				cut := func(lo, n int) []byte { return dst[lo : lo+n : lo+n] }
				ops := []rma.GetOp{
					{Dst: cut(0, 64), Target: 2, Disp: 64},
					{Dst: cut(64, 64), Target: 1, Disp: 0},
					{Dst: cut(128, 64), Target: 1, Disp: 64},
					{Dst: cut(192, 64), Target: 2, Disp: 128},
				}
				if err := c.GetBatch(ops); err != nil {
					return err
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
				st := c.Stats()
				// One run per target: [0,128) on 1, [64,192) on 2.
				if st.BatchMessages != 2 {
					t.Errorf("BatchMessages = %d, want 2", st.BatchMessages)
				}
				for i, op := range ops {
					for j, b := range op.Dst {
						if want := pattern(op.Disp + j + op.Target); b != want {
							t.Errorf("op %d byte %d: got %d want %d", i, j, b, want)
							break
						}
					}
				}
				return win.UnlockAll()
			}()
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocs asserts the allocation discipline of the hot path:
// steady-state full hits allocate nothing; steady-state misses (with
// their eviction, insertion and pending bookkeeping) stay at or under 2
// allocations per operation — under both goroutine schedules (see
// schedtest).
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	schedtest.Run(t, func(t *testing.T) {
		t.Run("FullHit", func(t *testing.T) {
			withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
				dst := make([]byte, 256)
				if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
					return err
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
				allocs := testing.AllocsPerRun(100, func() {
					if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
						t.Error(err)
					}
				})
				if allocs != 0 {
					t.Errorf("full hit allocates %.1f times per op, want 0", allocs)
				}
				return nil
			})
		})
		t.Run("Miss", func(t *testing.T) {
			p := alwaysParams()
			p.StorageBytes = 8 << 10 // 128 64-byte entries: every round evicts
			withCache(t, 64<<10, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
				const perEpoch = 64
				dst := make([]byte, 64)
				round := 0
				epoch := func() {
					// 4 rotating key sets: every get misses, every
					// miss evicts an entry two rounds old.
					base := (round % 4) * perEpoch * 64
					round++
					for j := 0; j < perEpoch; j++ {
						if err := c.Get(dst, datatype.Byte, 64, 1, base+j*64); err != nil {
							t.Error(err)
							return
						}
					}
					if err := win.FlushAll(); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < 8; i++ { // warm pools to steady state
					epoch()
				}
				allocs := testing.AllocsPerRun(8, epoch)
				if perOp := allocs / perEpoch; perOp > 2 {
					t.Errorf("miss path allocates %.2f times per op, want <= 2", perOp)
				}
				return nil
			})
		})
	})
}

// TestGetBatchAllocs pins the batch path's steady-state allocation rate:
// a warm, all-hit batch allocates nothing.
func TestGetBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 512)
		ops := batchOpsMix(dst)
		if err := c.GetBatch(ops); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.GetBatch(ops); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("all-hit batch allocates %.1f times per call, want 0", allocs)
		}
		return nil
	})
}
