package mpi

import (
	"encoding/binary"
	"sync"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/schedtest"
	"clampi/internal/simtime"
)

// exchangeProgram is an 8-rank all-to-all pattern: every rank publishes a
// deterministic pattern in its region, synchronizes, then reads and
// verifies every other rank's region. It returns each rank's final
// virtual time through clocks.
func exchangeProgram(clocks []simtime.Duration) func(r *Rank) error {
	return func(r *Rank) error {
		const regionSize = 1 << 12
		region := make([]byte, regionSize)
		for i := range region {
			region[i] = byte(r.ID()*31 + i)
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		// The window data is published before the barrier; the barrier
		// is the happens-before edge the readers rely on.
		r.Barrier()
		if err := win.LockAll(); err != nil {
			return err
		}
		buf := make([]byte, regionSize)
		for round := 0; round < 4; round++ {
			for off := 0; off < r.Size(); off++ {
				target := (r.ID() + off) % r.Size()
				if err := win.Get(buf, datatype.Byte, regionSize, target, 0); err != nil {
					return err
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
				for i := range buf {
					if buf[i] != byte(target*31+i) {
						return errBadByte{rank: r.ID(), target: target, off: i}
					}
				}
			}
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()
		clocks[r.ID()] = r.Clock().Now()
		return nil
	}
}

type errBadByte struct{ rank, target, off int }

func (e errBadByte) Error() string { return "corrupt remote read" }

// TestThroughputModeExchange runs a concurrent 8-rank all-to-all read
// pattern once per schedule (see schedtest), on every P exercising the
// per-target stripe locks under -race. Every read is checked against
// the pattern its target published, and the two runs must end on
// identical virtual clocks: the modelled costs make the result
// independent of how the goroutines were scheduled.
func TestThroughputModeExchange(t *testing.T) {
	const p = 8
	var runs [][]simtime.Duration
	schedtest.Do(func(s schedtest.Schedule) {
		clocks := make([]simtime.Duration, p)
		if err := Run(p, Config{}, exchangeProgram(clocks)); err != nil {
			t.Fatalf("%s schedule: %v", s.Name, err)
		}
		runs = append(runs, clocks)
	})
	for r := 0; r < p; r++ {
		if runs[0][r] != runs[1][r] {
			t.Errorf("rank %d: clock %v on one P, %v on every P", r, runs[0][r], runs[1][r])
		}
	}
}

// TestRanksRunConcurrently proves all ranks of a world are runnable at
// once: every rank checks in on a plain sync.WaitGroup and then waits
// for the others — a rendezvous outside the runtime's collectives. A
// runtime that let at most one rank execute user code at a time would
// deadlock here.
func TestRanksRunConcurrently(t *testing.T) {
	const p = 8
	var ready sync.WaitGroup
	ready.Add(p)
	err := Run(p, Config{}, func(r *Rank) error {
		ready.Done()
		ready.Wait() // all p ranks are inside user code right now
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAccumulate drives concurrent same-target accumulates
// from every rank: MPI-3 declares them element-wise atomic, which the
// stripe locks must uphold (and -race must agree).
func TestConcurrentAccumulate(t *testing.T) {
	const p = 8
	const slots = 64
	var region []byte
	err := Run(p, Config{}, func(r *Rank) error {
		local := make([]byte, slots*8)
		win := r.WinCreate(local, nil)
		defer win.Free()
		if err := win.LockAll(); err != nil {
			return err
		}
		one := make([]byte, slots*8)
		for i := 0; i < slots; i++ {
			one[i*8] = 1 // little-endian int64(1) per slot
		}
		for iter := 0; iter < 16; iter++ {
			if err := win.Accumulate(one, datatype.Int64, slots, 0, 0, OpSum); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()
		if r.ID() == 0 {
			region = local
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slots; i++ {
		got := int64(binary.LittleEndian.Uint64(region[i*8 : i*8+8]))
		if got != p*16 {
			t.Fatalf("slot %d = %d, want %d", i, got, p*16)
		}
	}
}
