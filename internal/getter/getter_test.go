package getter

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"clampi/internal/core"
	"clampi/internal/fault"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/wire"
)

func TestRawAndCachedDeliverSameData(t *testing.T) {
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 4096)
		if r.ID() == 1 {
			for i := range region {
				region[i] = byte(i * 13)
			}
		}
		rawWin := r.WinCreate(region, nil)
		defer rawWin.Free()
		cachedWin := r.WinCreate(region, nil)
		defer cachedWin.Free()

		if r.ID() == 0 {
			if err := rawWin.LockAll(); err != nil {
				return err
			}
			if err := cachedWin.LockAll(); err != nil {
				return err
			}
			cache, err := core.New(cachedWin, core.Params{Mode: core.AlwaysCache})
			if err != nil {
				return err
			}
			var gts = []Getter{NewRaw(rawWin), NewCached(cache)}
			bufs := [][]byte{make([]byte, 256), make([]byte, 256)}
			for round := 0; round < 3; round++ {
				for i, gt := range gts {
					if err := gt.Get(bufs[i], 1, 512); err != nil {
						return err
					}
					if err := gt.Flush(); err != nil {
						return err
					}
				}
				for i := range bufs[0] {
					if bufs[0][i] != bufs[1][i] {
						t.Fatalf("round %d byte %d: raw %d vs cached %d", round, i, bufs[0][i], bufs[1][i])
					}
				}
			}
			if s := cache.Stats(); s.Hits != 2 {
				t.Errorf("cached getter hits = %d, want 2", s.Hits)
			}
			// Invalidate is a no-op for Raw, real for Cached.
			for _, gt := range gts {
				gt.Invalidate()
			}
			if cache.CachedEntries() != 0 {
				t.Errorf("cache not invalidated")
			}
			if gts[0].Name() != "foMPI" || gts[1].Name() != "CLaMPI" {
				t.Errorf("names: %q %q", gts[0].Name(), gts[1].Name())
			}
			if err := rawWin.UnlockAll(); err != nil {
				return err
			}
			if err := cachedWin.UnlockAll(); err != nil {
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

// batchRegion is the size of each target's region in
// TestRawGetBatchPassThrough, batchPattern its byte i.
const batchRegion = 16 << 10

func batchPattern(target, i int) byte { return byte(target*131 + i*31 + (i >> 8)) }

// checkRawBatch issues one batch through Raw.GetBatch over win (already
// in an access epoch) and checks what handing the caller's slice straight
// to the transport relies on: the bytes are those scalar Gets deliver,
// the descriptors come back untouched, and a warm call allocates nothing.
func checkRawBatch(t *testing.T, name string, win rma.Window) {
	const opBytes = 576
	raw := NewRaw(win)
	ops := make([]BatchOp, 8)
	for i := range ops {
		ops[i] = BatchOp{Dst: make([]byte, opBytes), Target: i % 2, Disp: (i * 1531) % (batchRegion - opBytes)}
	}
	before := append([]BatchOp(nil), ops...)

	want := make([][]byte, len(ops))
	for i, op := range ops {
		want[i] = make([]byte, opBytes)
		if err := raw.Get(want[i], op.Target, op.Disp); err != nil {
			t.Errorf("%s: Get %d: %v", name, i, err)
			return
		}
		if err := raw.Flush(); err != nil {
			t.Errorf("%s: Flush: %v", name, err)
			return
		}
		if want[i][0] != batchPattern(op.Target, op.Disp) {
			t.Errorf("%s: scalar get %d does not read the region pattern", name, i)
		}
	}

	issue := func() error {
		if err := raw.GetBatch(ops); err != nil {
			return err
		}
		return raw.Flush()
	}
	if err := issue(); err != nil {
		t.Errorf("%s: GetBatch: %v", name, err)
		return
	}
	for i, op := range ops {
		if !bytes.Equal(op.Dst, want[i]) {
			t.Errorf("%s: op %d: batch bytes differ from the scalar get's", name, i)
		}
		was := before[i]
		if op.Target != was.Target || op.Disp != was.Disp || len(op.Dst) != len(was.Dst) || &op.Dst[0] != &was.Dst[0] {
			t.Errorf("%s: op %d: descriptor modified by GetBatch", name, i)
		}
	}
	if raceEnabled {
		return
	}
	var err error
	if allocs := testing.AllocsPerRun(100, func() {
		if e := issue(); e != nil {
			err = e
		}
	}); allocs != 0 || err != nil {
		t.Errorf("%s: warm GetBatch+Flush: %.1f allocs (want 0), err %v", name, allocs, err)
	}
}

// TestRawGetBatchPassThrough runs checkRawBatch over every rma.BatchWindow
// backend: the simulated window, the fault injector around it (no faults
// armed) and a socket window on a loopback connection.
func TestRawGetBatchPassThrough(t *testing.T) {
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, batchRegion)
		for i := range region {
			region[i] = batchPattern(r.ID(), i)
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		if r.ID() == 0 {
			if err := win.LockAll(); err != nil {
				return err
			}
			checkRawBatch(t, "mpi", win)
			checkRawBatch(t, "fault", fault.Wrap(win, fault.Scenario{}, 1))
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

	regions := wire.MakeRegions(2, batchRegion)
	for target, region := range regions {
		for i := range region {
			region[i] = batchPattern(target, i)
		}
	}
	srv, err := wire.Serve(wire.ServeConfig{
		Network: "unix", Addr: filepath.Join(t.TempDir(), "batch.sock"),
		Windows: []wire.WindowSpec{{Name: "w", Regions: regions}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(2 * time.Second) //clampi:walltime test teardown drain window
	win, err := wire.Open(wire.DialConfig{Network: "unix", Addr: srv.Addr().String(), Rank: wire.RankAuto, PoolSize: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer win.Free()
	if err := win.LockAll(); err != nil {
		t.Fatal(err)
	}
	checkRawBatch(t, "wire", win)
	if err := win.UnlockAll(); err != nil {
		t.Fatal(err)
	}
}
