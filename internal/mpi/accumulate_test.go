package mpi

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"clampi/internal/datatype"
)

func encI64(vals ...int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func encF64(vals ...float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func TestAccumulateSumInt64(t *testing.T) {
	err := Run(3, Config{}, func(r *Rank) error {
		win, local := r.WinAllocate(64, nil)
		defer win.Free()
		if err := win.Fence(); err != nil {
			return err
		}
		// All ranks add their (id+1) into target 0's first element.
		src := encI64(int64(r.ID() + 1))
		if err := win.Accumulate(src, datatype.Int64, 1, 0, 0, OpSum); err != nil {
			return err
		}
		if err := win.Fence(); err != nil {
			return err
		}
		if r.ID() == 0 {
			if got := int64(binary.LittleEndian.Uint64(local)); got != 1+2+3 {
				t.Errorf("sum = %d, want 6", got)
			}
		}
		return win.Fence()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateOpsInt32AndDouble(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, local := r.WinAllocate(64, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.LockAll(); err != nil {
				return err
			}
			// int32 max/min on elements 0 and 1 of rank 1.
			src32 := make([]byte, 8)
			a, b := int32(42), int32(-5)
			binary.LittleEndian.PutUint32(src32, uint32(a))
			binary.LittleEndian.PutUint32(src32[4:], uint32(b))
			if err := win.Accumulate(src32, datatype.Int32, 2, 1, 0, OpMax); err != nil {
				return err
			}
			if err := win.Accumulate(src32, datatype.Int32, 2, 1, 0, OpMin); err != nil {
				return err
			}
			// double sum at disp 16.
			if err := win.Accumulate(encF64(1.5), datatype.Double, 1, 1, 16, OpSum); err != nil {
				return err
			}
			if err := win.Accumulate(encF64(2.25), datatype.Double, 1, 1, 16, OpSum); err != nil {
				return err
			}
			if err := win.UnlockAll(); err != nil {
				return err
			}
		}
		r.Barrier()
		if r.ID() == 1 {
			// After max(0,42) then min(42,-5)... element 0: max gives
			// 42, then min(42, 42)? min applies src again: min(42,42)=42
			// for element 0? src element0=42: min(42,42)=42. Element 1:
			// max(0,-5)=0, then min(0,-5)=-5.
			if got := int32(binary.LittleEndian.Uint32(local)); got != 42 {
				t.Errorf("elem0 = %d, want 42", got)
			}
			if got := int32(binary.LittleEndian.Uint32(local[4:])); got != -5 {
				t.Errorf("elem1 = %d, want -5", got)
			}
			if got := math.Float64frombits(binary.LittleEndian.Uint64(local[16:])); got != 3.75 {
				t.Errorf("double sum = %v, want 3.75", got)
			}
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateReplaceIsPut(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, local := r.WinAllocate(64, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.LockAll(); err != nil {
				return err
			}
			if err := win.Accumulate([]byte{1, 2, 3}, datatype.Byte, 3, 1, 4, OpReplace); err != nil {
				return err
			}
			if err := win.UnlockAll(); err != nil {
				return err
			}
		}
		r.Barrier()
		if r.ID() == 1 && (local[4] != 1 || local[5] != 2 || local[6] != 3) {
			t.Errorf("replace data: %v", local[4:7])
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAccumulateErrors(t *testing.T) {
	err := Run(2, Config{}, func(r *Rank) error {
		win, _ := r.WinAllocate(32, nil)
		defer win.Free()
		src := encI64(1)
		if err := win.Accumulate(src, datatype.Int64, 1, 1, 0, OpSum); !errors.Is(err, ErrNoEpoch) {
			t.Errorf("outside epoch: %v", err)
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		if err := win.Accumulate(src, datatype.Byte, 8, 1, 0, OpSum); !errors.Is(err, ErrBadAccumulate) {
			t.Errorf("byte sum: %v", err)
		}
		if err := win.Accumulate(src, datatype.Int64, 1, 9, 0, OpSum); !errors.Is(err, ErrRankRange) {
			t.Errorf("bad rank: %v", err)
		}
		if err := win.Accumulate(src, datatype.Int64, 1, 1, 28, OpSum); !errors.Is(err, ErrBounds) {
			t.Errorf("out of bounds: %v", err)
		}
		if err := win.Accumulate(src[:4], datatype.Int64, 1, 1, 0, OpSum); !errors.Is(err, ErrShortBuf) {
			t.Errorf("short buf: %v", err)
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()
		if err := win.Free(); err != nil {
			return err
		}
		if err := win.Accumulate(src, datatype.Int64, 1, 1, 0, OpSum); !errors.Is(err, ErrFreed) {
			t.Errorf("freed win: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
