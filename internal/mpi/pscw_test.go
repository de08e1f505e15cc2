package mpi

import (
	"errors"
	"testing"

	"clampi/internal/datatype"
)

func TestPSCWHandshakeAndData(t *testing.T) {
	// Rank 1 exposes to rank 0; rank 0 accesses between Start and
	// Complete; rank 1's Wait returns only after Complete.
	err := Run(2, Config{}, func(r *Rank) error {
		region := make([]byte, 128)
		if r.ID() == 1 {
			for i := range region {
				region[i] = byte(i + 1)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		switch r.ID() {
		case 0:
			if err := win.Start([]int{1}); err != nil {
				return err
			}
			dst := make([]byte, 32)
			if err := win.Get(dst, datatype.Byte, 32, 1, 16); err != nil {
				return err
			}
			e0 := win.Epoch()
			if err := win.Complete(); err != nil {
				return err
			}
			if win.Epoch() != e0+1 {
				t.Errorf("Complete did not close the epoch")
			}
			for i := range dst {
				if dst[i] != byte(16+i+1) {
					t.Errorf("byte %d = %d", i, dst[i])
					break
				}
			}
		case 1:
			if err := win.Post([]int{0}); err != nil {
				return err
			}
			if err := win.Wait(); err != nil {
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

func TestPSCWManyOriginsOneTarget(t *testing.T) {
	const p = 4
	err := Run(p, Config{}, func(r *Rank) error {
		region := make([]byte, 64)
		if r.ID() == 0 {
			for i := range region {
				region[i] = byte(i * 2)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.Post([]int{1, 2, 3}); err != nil {
				return err
			}
			if err := win.Wait(); err != nil {
				return err
			}
		} else {
			if err := win.Start([]int{0}); err != nil {
				return err
			}
			dst := make([]byte, 8)
			if err := win.Get(dst, datatype.Byte, 8, 0, 8); err != nil {
				return err
			}
			if err := win.Complete(); err != nil {
				return err
			}
			for i := range dst {
				if dst[i] != byte((8+i)*2) {
					t.Errorf("rank %d byte %d = %d", r.ID(), i, dst[i])
					break
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

func TestPSCWErrors(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		defer win.Free()
		dst := make([]byte, 8)
		// RMA outside any epoch.
		if err := win.Get(dst, datatype.Byte, 8, 1, 0); !errors.Is(err, ErrNoEpoch) {
			t.Errorf("Get outside PSCW epoch: %v", err)
		}
		if err := win.Complete(); !errors.Is(err, ErrNoEpoch) {
			t.Errorf("Complete without Start: %v", err)
		}
		if err := win.Wait(); !errors.Is(err, ErrNoEpoch) {
			t.Errorf("Wait without Post: %v", err)
		}
		if err := win.Post([]int{9}); !errors.Is(err, ErrRankRange) {
			t.Errorf("Post bad rank: %v", err)
		}
		if err := win.Start([]int{9}); !errors.Is(err, ErrRankRange) {
			t.Errorf("Start bad rank: %v", err)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPSCWClockOrdering(t *testing.T) {
	// The origin's Start happens-after the target's Post; the target's
	// Wait happens-after the origin's Complete (virtual time).
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		defer win.Free()
		if r.ID() == 1 {
			r.Clock().Advance(5000) // target is "late" posting
			if err := win.Post([]int{0}); err != nil {
				return err
			}
			if err := win.Wait(); err != nil {
				return err
			}
			return nil
		}
		if err := win.Start([]int{1}); err != nil {
			return err
		}
		if r.Clock().Now() <= 5000 {
			t.Errorf("Start returned at %v, before the target's Post at 5000", r.Clock().Now())
		}
		return win.Complete()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPSCWRepeatedEpochs(t *testing.T) {
	// Several back-to-back PSCW epochs between the same pair.
	err := Run(2, Config{}, func(r *Rank) error {
		win, local := r.WinAllocate(64, nil)
		defer win.Free()
		for round := 0; round < 4; round++ {
			if r.ID() == 1 {
				local[0] = byte(round + 10)
				if err := win.Post([]int{0}); err != nil {
					return err
				}
				if err := win.Wait(); err != nil {
					return err
				}
			} else {
				if err := win.Start([]int{1}); err != nil {
					return err
				}
				dst := make([]byte, 1)
				if err := win.Get(dst, datatype.Byte, 1, 1, 0); err != nil {
					return err
				}
				if err := win.Complete(); err != nil {
					return err
				}
				if dst[0] != byte(round+10) {
					t.Errorf("round %d: got %d", round, dst[0])
				}
			}
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
