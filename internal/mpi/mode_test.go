package mpi

import (
	"encoding/binary"
	"sync"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/simtime"
)

// TestParseExecMode covers the flag-string surface.
func TestParseExecMode(t *testing.T) {
	cases := []struct {
		in   string
		want ExecMode
		err  bool
	}{
		{"", FidelityMeasured, false},
		{"fidelity", FidelityMeasured, false},
		{"serialized", FidelityMeasured, false},
		{"measured", FidelityMeasured, false},
		{"throughput", Throughput, false},
		{"concurrent", Throughput, false},
		{"parallel", Throughput, false},
		{"Fidelity", FidelityMeasured, false},
		{"THROUGHPUT", Throughput, false},
		{"bogus", FidelityMeasured, true},
	}
	for _, c := range cases {
		got, err := ParseExecMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseExecMode(%q) err = %v", c.in, err)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseExecMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if FidelityMeasured.String() != "fidelity" || Throughput.String() != "throughput" {
		t.Errorf("mode strings: %q %q", FidelityMeasured, Throughput)
	}
}

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

// TestThroughputModeExchange runs a genuinely concurrent 8-rank
// all-to-all read pattern in Throughput mode (exercising the per-target
// shard locks under -race) and checks the virtual clocks agree exactly
// with the serialized FidelityMeasured run: the modelled costs make the
// two modes indistinguishable in virtual time.
func TestThroughputModeExchange(t *testing.T) {
	const p = 8
	serial := make([]simtime.Duration, p)
	if err := Run(p, Config{Mode: FidelityMeasured}, exchangeProgram(serial)); err != nil {
		t.Fatalf("fidelity run: %v", err)
	}
	conc := make([]simtime.Duration, p)
	if err := Run(p, Config{Mode: Throughput}, exchangeProgram(conc)); err != nil {
		t.Fatalf("throughput run: %v", err)
	}
	for i := range serial {
		if serial[i] != conc[i] {
			t.Errorf("rank %d: fidelity clock %v != throughput clock %v", i, serial[i], conc[i])
		}
	}
}

// TestThroughputModeTrueConcurrency proves all ranks of a Throughput
// world are genuinely runnable at once: every rank checks in on a plain
// sync.WaitGroup and then waits for the others — a rendezvous outside
// the runtime's collectives. Under the serialized token at most one rank
// can execute user code, so this pattern would deadlock in
// FidelityMeasured mode; completing it requires true rank concurrency
// (and with it, as many cores as GOMAXPROCS offers).
func TestThroughputModeTrueConcurrency(t *testing.T) {
	const p = 8
	var ready sync.WaitGroup
	ready.Add(p)
	err := Run(p, Config{Mode: Throughput}, func(r *Rank) error {
		ready.Done()
		ready.Wait() // all p ranks are inside user code right now
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThroughputModeAccumulate drives concurrent same-target accumulates
// from every rank in Throughput mode: MPI-3 declares them element-wise
// atomic, which the shard lock must uphold (and -race must agree).
func TestThroughputModeAccumulate(t *testing.T) {
	const p = 8
	const slots = 64
	var region []byte
	err := Run(p, Config{Mode: Throughput}, func(r *Rank) error {
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
