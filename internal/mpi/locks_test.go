package mpi

import (
	"errors"
	"testing"

	"clampi/internal/datatype"
)

func TestLockTypeStrings(t *testing.T) {
	if LockShared.String() != "shared" || LockExclusive.String() != "exclusive" {
		t.Fatalf("lock type strings wrong")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	// Every rank takes a shared lock on rank 0 simultaneously; nobody
	// blocks forever.
	err := Run(4, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		defer win.Free()
		if err := win.Lock(0); err != nil {
			return err
		}
		dst := make([]byte, 8)
		if err := win.Get(dst, datatype.Byte, 8, 0, 0); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveLockMutualExclusion(t *testing.T) {
	// Ranks 0..3 each take the exclusive lock on target 0 and do a
	// read-modify-write of a counter byte. Without mutual exclusion
	// the increments would be lost (every rank reads the same initial
	// value); with it, the counter ends at 4.
	const p = 4
	err := Run(p, Config{}, func(r *Rank) error {
		win, local := r.WinAllocate(64, nil)
		defer win.Free()
		if err := win.LockWithType(LockExclusive, 0); err != nil {
			return err
		}
		dst := make([]byte, 1)
		if err := win.Get(dst, datatype.Byte, 1, 0, 0); err != nil {
			return err
		}
		if err := win.Flush(0); err != nil {
			return err
		}
		dst[0]++
		if err := win.Put(dst, datatype.Byte, 1, 0, 0); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		r.Barrier()
		if r.ID() == 0 && local[0] != p {
			t.Errorf("counter = %d, want %d (lost updates)", local[0], p)
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveLockClockSerializes(t *testing.T) {
	// Contended exclusive acquisitions must serialize in virtual time:
	// the later holder's epoch starts after the earlier one released.
	starts := make([]int64, 2)
	ends := make([]int64, 2)
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		defer win.Free()
		if err := win.LockWithType(LockExclusive, 0); err != nil {
			return err
		}
		starts[r.ID()] = int64(r.Clock().Now())
		dst := make([]byte, 32)
		if err := win.Get(dst, datatype.Byte, 32, 0, 0); err != nil {
			return err
		}
		if err := win.Unlock(0); err != nil {
			return err
		}
		ends[r.ID()] = int64(r.Clock().Now())
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One of the two held the lock second; its start must not precede
	// the other's end.
	first, second := 0, 1
	if starts[1] < starts[0] {
		first, second = 1, 0
	}
	if starts[second] < ends[first] {
		t.Fatalf("exclusive epochs overlap in virtual time: [%d,%d] and [%d,%d]",
			starts[first], ends[first], starts[second], ends[second])
	}
}

func TestConcurrentLocksToDifferentTargets(t *testing.T) {
	// One origin may hold locks on several targets at once (MPI-3).
	err := Run(3, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.Lock(1); err != nil {
				return err
			}
			if err := win.Lock(2); err != nil {
				return err
			}
			dst := make([]byte, 8)
			if err := win.Get(dst, datatype.Byte, 8, 1, 0); err != nil {
				return err
			}
			if err := win.Get(dst, datatype.Byte, 8, 2, 0); err != nil {
				return err
			}
			if err := win.Unlock(1); err != nil {
				return err
			}
			// Still locked to 2: RMA legal.
			if err := win.Get(dst, datatype.Byte, 8, 2, 0); err != nil {
				return err
			}
			if err := win.Unlock(2); err != nil {
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

func TestDoubleLockSameTarget(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.Lock(1); err != nil {
				return err
			}
			if err := win.Lock(1); !errors.Is(err, ErrAlreadyLocked) {
				t.Errorf("double lock: %v", err)
			}
			if err := win.Unlock(1); err != nil {
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

func TestLockErrors(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(64, nil)
		if err := win.LockWithType(LockExclusive, 9); !errors.Is(err, ErrRankRange) {
			t.Errorf("bad rank: %v", err)
		}
		r.Barrier()
		if err := win.Free(); err != nil {
			return err
		}
		if err := win.LockWithType(LockExclusive, 1); !errors.Is(err, ErrFreed) {
			t.Errorf("freed win: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
