package clampi

import (
	"testing"
	"time"

	"clampi/internal/mpi"
	"clampi/internal/wire"
)

// transferer is the data-movement surface the zero-length rule covers,
// shared by the raw backends and the caching Window.
type transferer interface {
	Get(dst []byte, dtype Datatype, count, target, disp int) error
	Put(src []byte, dtype Datatype, count, target, disp int) error
	GetBatch(ops []GetOp) error
	LockAll() error
	FlushAll() error
	UnlockAll() error
}

// TestZeroLengthTransfers pins the zero-byte rule of rma.Window: a Get or
// Put of count 0, or a GetBatch op of no bytes, to a target in range
// succeeds at any displacement — in range, at the region's end, past it,
// negative — and moves nothing. It
// holds on the simulated backend, on the wire backend, where no frame
// reaches the server, and through the caching Window over either, which
// counts each get as a direct miss that moves no bytes and admits nothing.
func TestZeroLengthTransfers(t *testing.T) {
	const size = 256
	disps := []struct {
		name string
		disp int
	}{{"in range", 64}, {"at the end", size}, {"past the end", size + 64}, {"negative", -8}}
	// The caching Window's Stats delta over the zero-byte get, batched get
	// and put at one displacement: two direct gets (one a batch op), no
	// bytes from either side, no management charge.
	wantStats := Stats{Gets: 2, Direct: 2, BatchOps: 1, LookupTime: 160}

	check := func(t *testing.T, w transferer, stats func() Stats, frames func() int64) {
		t.Helper()
		if err := w.LockAll(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		for _, d := range disps {
			var before Stats
			if stats != nil {
				before = stats()
			}
			framesBefore := frames()
			if err := w.Get(buf, Byte, 0, 1, d.disp); err != nil {
				t.Errorf("%s: Get = %v, want nil", d.name, err)
			}
			if err := w.GetBatch([]GetOp{{Dst: buf[:0], Target: 1, Disp: d.disp}}); err != nil {
				t.Errorf("%s: GetBatch = %v, want nil", d.name, err)
			}
			if err := w.Put(buf, Byte, 0, 1, d.disp); err != nil {
				t.Errorf("%s: Put = %v, want nil", d.name, err)
			}
			if err := w.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if n := frames() - framesBefore; n != 0 {
				t.Errorf("%s: the server received %d frames", d.name, n)
			}
			if stats != nil {
				if got := stats().Sub(before); got != wantStats {
					t.Errorf("%s: Stats delta\ngot  %#v\nwant %#v", d.name, got, wantStats)
				}
			}
		}
		if c, ok := w.(interface{ CachedEntries() int }); ok && c.CachedEntries() != 0 {
			t.Errorf("the cache holds %d entries after zero-byte gets only", c.CachedEntries())
		}
		if err := w.UnlockAll(); err != nil {
			t.Fatal(err)
		}
	}

	noFrames := func() int64 { return 0 }
	for _, cached := range []bool{false, true} {
		name := "mpi"
		if cached {
			name = "Window/mpi"
		}
		t.Run(name, func(t *testing.T) {
			err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
				win, _ := r.WinAllocate(size, nil)
				if r.ID() == 0 {
					if !cached {
						check(t, win, nil, noFrames)
					} else if w, err := Wrap(win, WithMode(AlwaysCache)); err != nil {
						t.Error(err)
					} else {
						check(t, w, w.Stats, noFrames)
					}
				}
				return win.Free()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	reg := NewRegistry()
	srv, err := Serve(ServeConfig{Network: "tcp", Addr: "127.0.0.1:0", Registry: reg,
		Windows: []WindowSpec{{Name: "w", Regions: MakeRegions(2, size)}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(2 * time.Second)
	framesIn := reg.Counter("wire_server_frames_total", L("dir", "in"))
	t.Run("wire", func(t *testing.T) {
		w, err := wire.Open(wire.DialConfig{Network: "tcp", Addr: srv.Addr().String(), Window: "w"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Free()
		check(t, w, nil, framesIn.Value)
	})
	t.Run("Window/wire", func(t *testing.T) {
		w, err := Dial(srv.Addr().String(), WithWindowName("w"), WithMode(AlwaysCache))
		if err != nil {
			t.Fatal(err)
		}
		defer w.Free()
		check(t, w, w.Stats, framesIn.Value)
	})
}
