package mpi

import (
	"errors"
	"sync/atomic"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/netsim"
	"clampi/internal/simtime"
)

func TestRunValidation(t *testing.T) {
	if err := Run(0, Config{}, func(*Rank) error { return nil }); !errors.Is(err, ErrWorldSize) {
		t.Fatalf("Run(0) = %v, want ErrWorldSize", err)
	}
	if err := Run(2, Config{}, nil); !errors.Is(err, ErrNilProgram) {
		t.Fatalf("Run(nil) = %v, want ErrNilProgram", err)
	}
}

func TestRunLaunchesAllRanks(t *testing.T) {
	var count int64
	seen := make([]bool, 8)
	err := Run(8, Config{}, func(r *Rank) error {
		atomic.AddInt64(&count, 1)
		seen[r.ID()] = true // distinct indices: no race
		if r.Size() != 8 {
			t.Errorf("Size() = %d", r.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("ran %d ranks, want 8", count)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("rank %d never ran", i)
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	err := Run(4, Config{}, func(r *Rank) error {
		if r.ID() == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	err := Run(4, Config{}, func(r *Rank) error {
		r.Clock().Advance(simtime.Duration(1000 * (r.ID() + 1)))
		r.Barrier()
		if r.Clock().Now() < 4000 {
			t.Errorf("rank %d clock %v < slowest participant", r.ID(), r.Clock().Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	err := Run(4, Config{}, func(r *Rank) error {
		got := r.Allgather(r.ID() * 10)
		for i, v := range got {
			if v.(int) != i*10 {
				t.Errorf("rank %d: allgather[%d] = %d, want %d", r.ID(), i, v, i*10)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllgatherResultsAreNotShared: each rendezvous hands out its own
// result, which stays intact through later collectives (the rendezvous
// slots are reused, their results must not be); a round in which every
// rank contributes nil still yields one element per rank.
func TestAllgatherResultsAreNotShared(t *testing.T) {
	err := Run(3, Config{}, func(r *Rank) error {
		first := r.Allgather(r.ID())
		r.Barrier()
		second := r.Allgather(r.ID() + 100)
		third := r.Allgather(nil)
		r.Barrier()
		for i := 0; i < 3; i++ {
			if first[i] != i || second[i] != i+100 || third[i] != nil {
				t.Errorf("rank %d: element %d of three gathers: %v, %v, %v", r.ID(), i, first[i], second[i], third[i])
			}
		}
		if len(third) != 3 {
			t.Errorf("rank %d: all-nil gather has %d elements", r.ID(), len(third))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBarrierAndFenceAllocateNothing: a rendezvous without contributions
// reuses the world's two slots.
func TestBarrierAndFenceAllocateNothing(t *testing.T) {
	const runs = 200
	err := Run(2, Config{}, func(r *Rank) error {
		win := r.WinCreate(make([]byte, 64), nil)
		defer win.Free()
		round := func() {
			r.Barrier()
			if err := win.Fence(); err != nil {
				t.Error(err)
			}
		}
		if r.ID() != 0 {
			for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call and its runs
				round()
			}
			return nil
		}
		if n := testing.AllocsPerRun(runs, round); n != 0 {
			t.Errorf("Barrier+Fence allocate %.2f times per round", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReductionsAndBcast(t *testing.T) {
	err := Run(4, Config{}, func(r *Rank) error {
		if s := r.AllreduceSum(1.5); s != 6 {
			t.Errorf("AllreduceSum = %v, want 6", s)
		}
		v := r.Bcast(r.ID()*100, 2)
		if v.(int) != 200 {
			t.Errorf("Bcast = %v, want 200", v)
		}
		// Out-of-range root falls back to 0.
		v = r.Bcast(r.ID()+7, 99)
		if v.(int) != 7 {
			t.Errorf("Bcast bad root = %v, want 7", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinCreateAndGet(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		region := make([]byte, 64)
		if r.ID() == 1 {
			for i := range region {
				region[i] = byte(i + 1)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.LockAll(); err != nil {
				return err
			}
			dst := make([]byte, 16)
			if err := win.Get(dst, datatype.Byte, 16, 1, 8); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			for i := 0; i < 16; i++ {
				if dst[i] != byte(8+i+1) {
					t.Errorf("dst[%d] = %d, want %d", i, dst[i], 8+i+1)
				}
			}
			if err := win.UnlockAll(); err != nil {
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

func TestWinAllocatePutGetRoundTrip(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, local := r.WinAllocate(128, Info{"clampi": "transparent"})
		defer win.Free()
		if win.Info()["clampi"] != "transparent" {
			t.Errorf("info not preserved")
		}
		if len(local) != 128 || len(win.Local()) != 128 {
			t.Errorf("local region size %d/%d", len(local), len(win.Local()))
		}
		if r.ID() == 0 {
			if err := win.Lock(1); err != nil {
				return err
			}
			src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
			if err := win.Put(src, datatype.Byte, 8, 1, 32); err != nil {
				return err
			}
			if err := win.Flush(1); err != nil {
				return err
			}
			dst := make([]byte, 8)
			if err := win.Get(dst, datatype.Byte, 8, 1, 32); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
			for i := range src {
				if dst[i] != src[i] {
					t.Errorf("round trip byte %d: got %d want %d", i, dst[i], src[i])
				}
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetWithElementDatatype(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		region := make([]byte, 64)
		if r.ID() == 1 {
			for i := range region {
				region[i] = byte(i)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.LockAll(); err != nil {
				return err
			}
			// 2 Int32 elements, the 8 bytes at disp 4.
			dst := make([]byte, 8)
			if err := win.Get(dst, datatype.Int32, 2, 1, 4); err != nil {
				return err
			}
			if err := win.UnlockAll(); err != nil {
				return err
			}
			want := []byte{4, 5, 6, 7, 8, 9, 10, 11}
			for i := range want {
				if dst[i] != want[i] {
					t.Errorf("dst[%d] = %d, want %d", i, dst[i], want[i])
				}
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMAErrors(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(32, nil)
		dst := make([]byte, 64)

		// Outside any epoch.
		if err := win.Get(dst, datatype.Byte, 8, 1, 0); !errors.Is(err, ErrNoEpoch) {
			t.Errorf("Get outside epoch: %v", err)
		}
		if err := win.Flush(1); !errors.Is(err, ErrNoEpoch) {
			t.Errorf("Flush outside epoch: %v", err)
		}
		if err := win.Unlock(1); !errors.Is(err, ErrNoEpoch) {
			t.Errorf("Unlock without lock: %v", err)
		}
		if err := win.UnlockAll(); !errors.Is(err, ErrNoEpoch) {
			t.Errorf("UnlockAll without lock: %v", err)
		}

		if err := win.LockAll(); err != nil {
			return err
		}
		if err := win.Get(dst, datatype.Byte, 8, 5, 0); !errors.Is(err, ErrRankRange) {
			t.Errorf("Get bad rank: %v", err)
		}
		if err := win.Get(dst, datatype.Byte, 8, 1, 30); !errors.Is(err, ErrBounds) {
			t.Errorf("Get out of bounds: %v", err)
		}
		if err := win.Get(dst, datatype.Byte, 8, 1, -4); !errors.Is(err, ErrBounds) {
			t.Errorf("Get negative disp: %v", err)
		}
		if err := win.Get(dst[:2], datatype.Byte, 8, 1, 0); !errors.Is(err, ErrShortBuf) {
			t.Errorf("Get short buffer: %v", err)
		}
		if err := win.Put(dst[:2], datatype.Byte, 8, 1, 0); !errors.Is(err, ErrShortBuf) {
			t.Errorf("Put short buffer: %v", err)
		}
		if err := win.Put(dst, datatype.Byte, 8, 9, 0); !errors.Is(err, ErrRankRange) {
			t.Errorf("Put bad rank: %v", err)
		}
		if err := win.Put(dst, datatype.Byte, 64, 1, 0); !errors.Is(err, ErrBounds) {
			t.Errorf("Put out of bounds: %v", err)
		}
		if err := win.Flush(7); !errors.Is(err, ErrRankRange) {
			t.Errorf("Flush bad rank: %v", err)
		}
		if err := win.Lock(9); !errors.Is(err, ErrRankRange) {
			t.Errorf("Lock bad rank: %v", err)
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()

		if err := win.Free(); err != nil {
			return err
		}
		if err := win.Free(); !errors.Is(err, ErrFreed) {
			t.Errorf("double Free: %v", err)
		}
		if err := win.LockAll(); !errors.Is(err, ErrFreed) {
			t.Errorf("LockAll after free: %v", err)
		}
		if err := win.Get(dst, datatype.Byte, 8, 1, 0); !errors.Is(err, ErrFreed) {
			t.Errorf("Get after free: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEpochCounterAndListeners(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		defer win.Free()
		var fired []int64
		win.AddEpochListener(func(e int64) { fired = append(fired, e) })
		win.AddEpochListener(nil) // must be ignored

		if win.Epoch() != 0 {
			t.Errorf("initial epoch = %d", win.Epoch())
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		dst := make([]byte, 8)
		if err := win.Get(dst, datatype.Byte, 8, 1-r.ID(), 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if win.Epoch() != 1 {
			t.Errorf("epoch after flush = %d, want 1", win.Epoch())
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		if win.Epoch() != 2 {
			t.Errorf("epoch after unlock = %d, want 2", win.Epoch())
		}
		if len(fired) != 2 || fired[0] != 0 || fired[1] != 1 {
			t.Errorf("listener fired with %v, want [0 1]", fired)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushAdvancesClockByNetworkLatency(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(1<<20, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.LockAll(); err != nil {
				return err
			}
			before := r.Clock().Now()
			dst := make([]byte, 64*1024)
			if err := win.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
				return err
			}
			afterIssue := r.Clock().Now()
			if err := win.FlushAll(); err != nil {
				return err
			}
			afterFlush := r.Clock().Now()

			model := r.Model()
			dist := r.Distance(1)
			issue := afterIssue - before
			if issue != model.IssueOverhead(dist) {
				t.Errorf("issue cost %v, want %v", issue, model.IssueOverhead(dist))
			}
			total := afterFlush - before
			want := model.GetLatency(64*1024, dist)
			if total != want {
				t.Errorf("end-to-end %v, want %v", total, want)
			}
			if err := win.UnlockAll(); err != nil {
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

func TestPipelinedGetsOverlap(t *testing.T) {
	// K gets issued back-to-back must complete in far less than K times
	// the single-get latency (they pipeline; only issue overheads
	// serialize).
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(1<<16, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.LockAll(); err != nil {
				return err
			}
			const k = 100
			single := r.Model().GetLatency(1024, r.Distance(1))
			before := r.Clock().Now()
			dst := make([]byte, 1024)
			for i := 0; i < k; i++ {
				if err := win.Get(dst, datatype.Byte, 1024, 1, 0); err != nil {
					return err
				}
			}
			if win.PendingOps() != k {
				t.Errorf("PendingOps = %d, want %d", win.PendingOps(), k)
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			if win.PendingOps() != 0 {
				t.Errorf("PendingOps after flush = %d", win.PendingOps())
			}
			elapsed := r.Clock().Now() - before
			if elapsed >= simtime.Duration(k)*single/2 {
				t.Errorf("pipelined %d gets took %v, not overlapped (single=%v)", k, elapsed, single)
			}
			if err := win.UnlockAll(); err != nil {
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

func TestFlushPerTargetOnlyCompletesThatTarget(t *testing.T) {
	err := Run(3, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(4096, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.LockAll(); err != nil {
				return err
			}
			dst := make([]byte, 1024)
			if err := win.Get(dst, datatype.Byte, 1024, 1, 0); err != nil {
				return err
			}
			if err := win.Get(dst, datatype.Byte, 1024, 2, 0); err != nil {
				return err
			}
			if err := win.Flush(1); err != nil {
				return err
			}
			if win.PendingOps() != 1 {
				t.Errorf("PendingOps after Flush(1) = %d, want 1", win.PendingOps())
			}
			if err := win.UnlockAll(); err != nil {
				return err
			}
			if win.PendingOps() != 0 {
				t.Errorf("PendingOps after UnlockAll = %d", win.PendingOps())
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFence(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		defer win.Free()
		if err := win.Fence(); err != nil { // opens first epoch
			return err
		}
		e0 := win.Epoch()
		if r.ID() == 0 {
			src := []byte{42}
			if err := win.Put(src, datatype.Byte, 1, 1, 0); err != nil {
				return err
			}
		}
		if err := win.Fence(); err != nil { // closes epoch, opens next
			return err
		}
		if win.Epoch() != e0+1 {
			t.Errorf("epoch did not advance across fence: %d -> %d", e0, win.Epoch())
		}
		if r.ID() == 1 && win.Local()[0] != 42 {
			t.Errorf("put not visible after fence: %d", win.Local()[0])
		}
		if err := win.Fence(); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistanceMapping(t *testing.T) {
	err := Run(8, Config{RanksPerNode: 4}, func(r *Rank) error {
		if r.ID() == 0 {
			if d := r.Distance(0); d != netsim.SameProcess {
				t.Errorf("Distance(self) = %v", d)
			}
			if d := r.Distance(1); d != netsim.SameSocket {
				t.Errorf("Distance(1) = %v", d)
			}
			if d := r.Distance(2); d != netsim.SameNode {
				t.Errorf("Distance(2) = %v", d)
			}
			if d := r.Distance(4); d != netsim.OtherNode {
				t.Errorf("Distance(4) = %v", d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegionSize(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		size := 100 * (r.ID() + 1)
		win, _ := r.WinAllocate(size, nil)
		defer win.Free()
		n, err := win.RegionSize(1)
		if err != nil || n != 200 {
			t.Errorf("RegionSize(1) = %d, %v", n, err)
		}
		if _, err := win.RegionSize(5); !errors.Is(err, ErrRankRange) {
			t.Errorf("RegionSize(5) err = %v", err)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinAllocateNegativeSize(t *testing.T) {
	err := Run(1, Config{}, func(r *Rank) error {
		win, region := r.WinAllocate(-5, nil)
		defer win.Free()
		if len(region) != 0 {
			t.Errorf("negative size allocated %d bytes", len(region))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStringForm(t *testing.T) {
	err := Run(1, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(8, nil)
		defer win.Free()
		if win.String() == "" {
			t.Errorf("empty String()")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksManyWindows(t *testing.T) {
	// Stress the collective rendezvous: several windows created in
	// sequence by 16 ranks, with interleaved barriers.
	err := Run(16, Config{}, func(r *Rank) error {
		for i := 0; i < 4; i++ {
			win, local := r.WinAllocate(256, nil)
			for j := range local {
				local[j] = byte(r.ID())
			}
			r.Barrier()
			if err := win.LockAll(); err != nil {
				return err
			}
			dst := make([]byte, 256)
			trg := (r.ID() + 1) % r.Size()
			if err := win.Get(dst, datatype.Byte, 256, trg, 0); err != nil {
				return err
			}
			if err := win.UnlockAll(); err != nil {
				return err
			}
			if dst[0] != byte(trg) {
				t.Errorf("rank %d window %d: got %d want %d", r.ID(), i, dst[0], trg)
			}
			if err := win.Free(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageGapPacesInjection(t *testing.T) {
	// With LogGP g set, k pipelined gets cannot complete faster than
	// (k-1)*g plus one latency; with g = 0 they pipeline freely.
	gapModel := netsim.NewModel(map[netsim.Distance]netsim.Params{
		netsim.OtherNode: {Base: 1800, Overhead: 100, BytesPerSecond: 10e9, Gap: 1000},
	})
	var withGap, withoutGap simtime.Duration
	for _, gapped := range []bool{false, true} {
		cfg := Config{}
		if gapped {
			cfg.Model = gapModel
		}
		err := Run(2, cfg, func(r *Rank) error {
			win, _ := r.WinAllocate(1<<16, nil)
			defer win.Free()
			if r.ID() == 0 {
				if err := win.LockAll(); err != nil {
					return err
				}
				const k = 32
				dst := make([]byte, 64)
				t0 := r.Clock().Now()
				for i := 0; i < k; i++ {
					if err := win.Get(dst, datatype.Byte, 64, 1, 0); err != nil {
						return err
					}
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
				if gapped {
					withGap = r.Clock().Now() - t0
				} else {
					withoutGap = r.Clock().Now() - t0
				}
				if err := win.UnlockAll(); err != nil {
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
	if withGap <= withoutGap {
		t.Fatalf("gap pacing had no effect: %v vs %v", withGap, withoutGap)
	}
	// 32 ops at g=1000ns: at least 31µs of injection serialization.
	if withGap < 31*simtime.Microsecond {
		t.Fatalf("gapped run %v, want >= 31µs", withGap)
	}
}
