package core

import (
	"bytes"
	"errors"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/fault"
	"clampi/internal/mpi"
	"clampi/internal/rma"
)

// withNotifyWorld runs a 2-rank world: rank 1 owns a pattern-filled
// region and plays the remote writer, rank 0 attaches a Cache with
// params and plays the cached reader. Both ranks hold a passive LockAll
// epoch; reader and writer must issue matching r.Barrier() counts to
// sequence their scripts.
func withNotifyWorld(t *testing.T, regionSize int, params Params,
	reader func(c *Cache, win *mpi.Win, r *mpi.Rank) error,
	writer func(win *mpi.Win, r *mpi.Rank) error) {
	t.Helper()
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, regionSize)
		if r.ID() == 1 {
			for i := range region {
				region[i] = pattern(i)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			var c *Cache
			c, fnErr = New(win, params)
			if fnErr == nil {
				fnErr = win.LockAll()
			}
			if fnErr == nil {
				fnErr = reader(c, win, r)
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		} else {
			fnErr = win.LockAll()
			if fnErr == nil {
				fnErr = writer(win, r)
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fill returns n bytes of v.
func fill(n int, v byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = v
	}
	return b
}

// TestNotifyTargetedInvalidation: a notified sub-span write invalidates
// exactly the overlapping entry; untouched entries survive both the
// write and the transparent-mode epoch closure (no blanket
// invalidation).
func TestNotifyTargetedInvalidation(t *testing.T) {
	params := Params{NotifyTargeted: true}
	reader := func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		a, b := make([]byte, 64), make([]byte, 64)
		if err := c.Get(a, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := c.Get(b, datatype.Byte, 64, 1, 128); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil { // entries CACHED, epoch closed
			return err
		}
		r.Barrier() // writer goes
		r.Barrier() // write landed
		if err := c.Get(a, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := c.Get(b, datatype.Byte, 64, 1, 128); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if !bytes.Equal(a[:16], fill(16, 0xAA)) {
			t.Errorf("invalidated span served stale: a[0:16] = %v", a[:16])
		}
		checkData(t, a[16:], 16)
		checkData(t, b, 128)
		st := c.Stats()
		if st.Notifications != 1 || st.NotifyInvalidations != 1 || st.NotifyPatches != 0 {
			t.Errorf("notify counters = %d/%d/%d, want 1/1/0",
				st.Notifications, st.NotifyInvalidations, st.NotifyPatches)
		}
		if st.Invalidations != 0 {
			t.Errorf("blanket invalidations = %d, want 0 (targeted mode)", st.Invalidations)
		}
		if st.FullHits != 1 {
			t.Errorf("FullHits = %d, want 1 (the untouched entry)", st.FullHits)
		}
		return nil
	}
	writer := func(win *mpi.Win, r *mpi.Rank) error {
		r.Barrier()
		// 16 bytes into a 64-byte cached entry: carried data cannot
		// patch (the entry is not inside the span), so the reader must
		// invalidate.
		err := win.PutNotify(fill(16, 0xAA), datatype.Byte, 16, 1, 0, 1)
		r.Barrier()
		return err
	}
	withNotifyWorld(t, 512, params, reader, writer)
}

// TestNotifyPatchKeepsHit: an exactly-covering notified write patches
// the cached entry in place — the next read hits locally and sees the
// new bytes without any network traffic.
func TestNotifyPatchKeepsHit(t *testing.T) {
	params := Params{NotifyTargeted: true}
	reader := func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		buf := make([]byte, 64)
		if err := c.Get(buf, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		r.Barrier()
		r.Barrier()
		preNet := c.Stats().BytesFromNetwork
		if err := c.Get(buf, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if !bytes.Equal(buf, fill(64, 0xBB)) {
			t.Errorf("patched entry served wrong bytes: %v...", buf[:8])
		}
		st := c.Stats()
		if st.NotifyPatches != 1 || st.NotifyInvalidations != 0 {
			t.Errorf("patches/invalidations = %d/%d, want 1/0", st.NotifyPatches, st.NotifyInvalidations)
		}
		if st.BytesFromNetwork != preNet {
			t.Errorf("patched hit crossed the network: %d -> %d bytes", preNet, st.BytesFromNetwork)
		}
		if st.FullHits != 1 {
			t.Errorf("FullHits = %d, want 1", st.FullHits)
		}
		return nil
	}
	writer := func(win *mpi.Win, r *mpi.Rank) error {
		r.Barrier()
		err := win.PutNotify(fill(64, 0xBB), datatype.Byte, 64, 1, 0, 7)
		r.Barrier()
		return err
	}
	withNotifyWorld(t, 512, params, reader, writer)
}

// TestNotifyOverflowFallsBack: when the bounded queue sheds descriptors
// the reader cannot know which spans changed, so the drain falls back to
// one conservative full invalidation — bounded staleness degrades to
// correctness, never to silent staleness.
func TestNotifyOverflowFallsBack(t *testing.T) {
	params := Params{NotifyTargeted: true, NotifyQueueCap: 4}
	const pushes = 8
	reader := func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		buf := make([]byte, 64)
		if err := c.Get(buf, datatype.Byte, 64, 1, 256); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		r.Barrier()
		r.Barrier()
		if err := c.Get(buf, datatype.Byte, 64, 1, 256); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, buf, 256) // span untouched by the writes
		st := c.Stats()
		if st.Invalidations < 1 {
			t.Errorf("Invalidations = %d, want >= 1 (overflow fallback)", st.Invalidations)
		}
		if st.Notifications > pushes {
			t.Errorf("Notifications = %d beyond the %d pushed", st.Notifications, pushes)
		}
		if st.FullHits != 0 {
			t.Errorf("FullHits = %d, want 0: the fallback must have emptied the cache", st.FullHits)
		}
		return nil
	}
	writer := func(win *mpi.Win, r *mpi.Rank) error {
		r.Barrier()
		for i := 0; i < pushes; i++ {
			if err := win.PutNotify([]byte{0xEE}, datatype.Byte, 1, 1, i, uint32(i)); err != nil {
				return err
			}
		}
		r.Barrier()
		return nil
	}
	withNotifyWorld(t, 512, params, reader, writer)
}

// TestNotifyDuplicateNeverPatches: under duplicate delivery (fault
// decorator) the redelivered descriptor invalidates its span instead of
// patching — stale carried bytes can never overwrite newer data — and
// subsequent reads refetch fresh bytes.
func TestNotifyDuplicateNeverPatches(t *testing.T) {
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 512)
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			fw := fault.Wrap(win, fault.Scenario{Name: "ndup", NotifyDupRate: 1}, 7)
			c, err := New(fw, Params{NotifyTargeted: true})
			if err != nil {
				return err
			}
			if fnErr = win.LockAll(); fnErr == nil {
				buf := make([]byte, 64)
				fnErr = c.Get(buf, datatype.Byte, 64, 1, 0)
				if fnErr == nil {
					fnErr = win.FlushAll()
				}
				r.Barrier()
				r.Barrier()
				if fnErr == nil {
					fnErr = c.Get(buf, datatype.Byte, 64, 1, 0)
				}
				if fnErr == nil {
					fnErr = win.FlushAll()
				}
				if fnErr == nil {
					if !bytes.Equal(buf, fill(64, 0xCC)) {
						t.Errorf("read after duplicated notification is stale or torn: %v...", buf[:8])
					}
					st := c.Stats()
					if st.NotifyPatches != 1 {
						t.Errorf("NotifyPatches = %d, want 1 (only the in-order copy)", st.NotifyPatches)
					}
					if st.NotifyInvalidations != 1 {
						t.Errorf("NotifyInvalidations = %d, want 1 (the duplicate)", st.NotifyInvalidations)
					}
				}
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		} else {
			if fnErr = win.LockAll(); fnErr == nil {
				r.Barrier()
				fnErr = win.PutNotify(fill(64, 0xCC), datatype.Byte, 64, 1, 0, 3)
				r.Barrier()
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNotifyDropFallsBack: lost descriptors (fault drop) leave sequence
// gaps; the first surviving descriptor past a gap triggers the
// conservative full invalidation, so reads stay fresh.
func TestNotifyDropFallsBack(t *testing.T) {
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 512)
		for i := range region {
			region[i] = pattern(i)
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			fw := fault.Wrap(win, fault.Scenario{Name: "ndrop", NotifyDropRate: 0.5}, 11)
			c, err := New(fw, Params{NotifyTargeted: true})
			if err != nil {
				return err
			}
			if fnErr = win.LockAll(); fnErr == nil {
				buf := make([]byte, 64)
				fnErr = c.Get(buf, datatype.Byte, 64, 1, 256)
				if fnErr == nil {
					fnErr = win.FlushAll()
				}
				r.Barrier()
				r.Barrier()
				if fnErr == nil {
					fnErr = c.Get(buf, datatype.Byte, 64, 1, 256)
				}
				if fnErr == nil {
					fnErr = win.FlushAll()
				}
				if fnErr == nil {
					checkData(t, buf, 256)
					st := c.Stats()
					fc := fw.Counts()
					if fc.NotifyDrops == 0 {
						t.Errorf("scenario dropped nothing; pick another seed")
					} else if st.Invalidations < 1 {
						t.Errorf("Invalidations = %d, want >= 1 (gap fallback after %d drops)",
							st.Invalidations, fc.NotifyDrops)
					}
				}
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		} else {
			if fnErr = win.LockAll(); fnErr == nil {
				r.Barrier()
				for i := 0; i < 16 && fnErr == nil; i++ {
					fnErr = win.PutNotify([]byte{0xDD}, datatype.Byte, 1, 1, i, uint32(i))
				}
				r.Barrier()
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNotifyTailDropFallsBack: with every notification dropped there is
// never a later arrival to expose an in-queue sequence gap — the queue
// drains empty and looks clean. The reader must still notice the loss by
// trailing the delivered-count register (NotifyLastSeq) after the drain
// and fall back to a blanket invalidation, so the next Get refetches the
// fresh bytes instead of serving the stale cached span.
func TestNotifyTailDropFallsBack(t *testing.T) {
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 512)
		for i := range region {
			region[i] = pattern(i)
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			fw := fault.Wrap(win, fault.Scenario{Name: "ntail", NotifyDropRate: 1}, 7)
			c, err := New(fw, Params{NotifyTargeted: true})
			if err != nil {
				return err
			}
			if fnErr = win.LockAll(); fnErr == nil {
				buf := make([]byte, 64)
				fnErr = c.Get(buf, datatype.Byte, 64, 1, 128)
				if fnErr == nil {
					fnErr = win.FlushAll()
				}
				r.Barrier()
				r.Barrier()
				if fnErr == nil {
					fnErr = c.Get(buf, datatype.Byte, 64, 1, 128)
				}
				if fnErr == nil {
					fnErr = win.FlushAll()
				}
				if fnErr == nil {
					want := bytes.Repeat([]byte{0xEE}, 64)
					if !bytes.Equal(buf, want) {
						t.Errorf("Get after tail drop = % x..., want all 0xEE (stale cache served)", buf[:8])
					}
					st := c.Stats()
					fc := fw.Counts()
					if fc.NotifyDrops == 0 {
						t.Errorf("injector dropped nothing despite rate 1.0")
					} else if st.Invalidations < 1 {
						t.Errorf("Invalidations = %d, want >= 1 (tail-loss reconciliation after %d drops)",
							st.Invalidations, fc.NotifyDrops)
					}
				}
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		} else {
			if fnErr = win.LockAll(); fnErr == nil {
				r.Barrier()
				src := bytes.Repeat([]byte{0xEE}, 64)
				fnErr = win.PutNotify(src, datatype.Byte, 64, 1, 128, 42)
				if fnErr == nil {
					fnErr = win.FlushAll()
				}
				r.Barrier()
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteHitPatch: a dense Put exactly covering a cached entry patches
// it in place — the entry keeps hitting and serves the new bytes, while
// the write still reaches the target (write-through).
func TestWriteHitPatch(t *testing.T) {
	reader := func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		buf := make([]byte, 64)
		if err := c.Get(buf, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		// New epoch: patch the entry with a write, then read it back.
		if err := c.Get(buf, datatype.Byte, 64, 1, 0); err != nil { // re-prime post-closure
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		preNet := c.Stats().BytesFromNetwork
		if err := c.Put(fill(64, 0xDD), datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := c.Get(buf, datatype.Byte, 64, 1, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if !bytes.Equal(buf, fill(64, 0xDD)) {
			t.Errorf("write-hit entry served stale bytes: %v...", buf[:8])
		}
		st := c.Stats()
		if st.WriteHits != 1 {
			t.Errorf("WriteHits = %d, want 1", st.WriteHits)
		}
		if st.BytesFromNetwork != preNet {
			t.Errorf("read after write hit crossed the network: %d -> %d", preNet, st.BytesFromNetwork)
		}
		r.Barrier()
		return nil
	}
	writer := func(win *mpi.Win, r *mpi.Rank) error {
		r.Barrier()
		return nil
	}
	// NotifyTargeted keeps entries across the FlushAll closures; the
	// write-hit machinery itself works in any mode.
	withNotifyWorld(t, 512, Params{NotifyTargeted: true}, reader, writer)
}

// TestWriteBackCoalesces: write-back staging holds dense puts in the
// dirty buffer, merges exactly-adjacent spans into one flush message,
// and read-your-writes forces the flush before an overlapping read.
func TestWriteBackCoalesces(t *testing.T) {
	params := Params{WriteBack: true}
	reader := func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		for i, v := range []byte{0xC0, 0xC1, 0xC2} {
			if err := c.Put(fill(16, v), datatype.Byte, 16, 1, i*16); err != nil {
				return err
			}
		}
		if err := c.Put(fill(16, 0xC9), datatype.Byte, 16, 1, 256); err != nil {
			return err
		}
		st := c.Stats()
		if st.WriteBacks != 4 || st.DirtyFlushes != 0 {
			t.Errorf("staged: WriteBacks=%d DirtyFlushes=%d, want 4 staged, 0 flushed",
				st.WriteBacks, st.DirtyFlushes)
		}
		// Read-your-writes: this read overlaps a staged span, so the
		// buffer must flush first and the read sees the written bytes.
		buf := make([]byte, 16)
		if err := c.Get(buf, datatype.Byte, 16, 1, 16); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if !bytes.Equal(buf, fill(16, 0xC1)) {
			t.Errorf("read-your-writes violated: %v", buf)
		}
		st = c.Stats()
		if st.DirtyFlushes != 2 {
			t.Errorf("DirtyFlushes = %d, want 2 (one merged [0,48) run + the distant span)", st.DirtyFlushes)
		}
		r.Barrier() // writer verifies its region
		r.Barrier()
		return nil
	}
	writer := func(win *mpi.Win, r *mpi.Rank) error {
		r.Barrier()
		r.Barrier()
		return nil
	}
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 512)
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			c, err := New(win, params)
			if err != nil {
				return err
			}
			if fnErr = win.LockAll(); fnErr == nil {
				fnErr = reader(c, win, r)
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		} else {
			if fnErr = win.LockAll(); fnErr == nil {
				fnErr = writer(win, r)
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
			// The coalesced flush must have landed every span.
			for i, v := range []byte{0xC0, 0xC1, 0xC2} {
				if !bytes.Equal(region[i*16:(i+1)*16], fill(16, v)) {
					t.Errorf("span %d not delivered: %v", i, region[i*16:i*16+4])
				}
			}
			if !bytes.Equal(region[256:272], fill(16, 0xC9)) {
				t.Errorf("distant span not delivered")
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteBackFlushesAtEpochClose: spans staged without any forcing
// read flush when the epoch closes.
func TestWriteBackFlushesAtEpochClose(t *testing.T) {
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 256)
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			c, err := New(win, Params{WriteBack: true})
			if err != nil {
				return err
			}
			if fnErr = win.LockAll(); fnErr == nil {
				fnErr = c.Put(fill(32, 0x5A), datatype.Byte, 32, 1, 64)
				if fnErr == nil {
					fnErr = win.FlushAll() // epoch closure flushes the buffer
				}
				if st := c.Stats(); fnErr == nil && (st.WriteBacks != 1 || st.DirtyFlushes != 1) {
					t.Errorf("WriteBacks=%d DirtyFlushes=%d, want 1/1", st.WriteBacks, st.DirtyFlushes)
				}
				r.Barrier()
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		} else {
			if fnErr = win.LockAll(); fnErr == nil {
				r.Barrier()
				if !bytes.Equal(region[64:96], fill(32, 0x5A)) {
					t.Errorf("epoch-close flush did not deliver: %v", region[64:68])
				}
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// plainWin hides the backend's notification extension.
type plainWin struct{ rma.Window }

// TestNotifyWithoutExtension: NotifyTargeted over a backend without the
// extension is silently inert (like LocalityAware), and PutNotify
// reports ErrNoNotify.
func TestNotifyWithoutExtension(t *testing.T) {
	err := mpi.Run(1, mpi.Config{}, func(r *mpi.Rank) error {
		win := r.WinCreate(make([]byte, 64), nil)
		defer win.Free()
		c, err := New(plainWin{win}, Params{NotifyTargeted: true})
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		if err := c.PutNotify([]byte{1}, datatype.Byte, 1, 0, 0, 0); !errors.Is(err, ErrNoNotify) {
			t.Errorf("PutNotify = %v, want ErrNoNotify", err)
		}
		if d := c.NotifyQueueDepth(); d != 0 {
			t.Errorf("NotifyQueueDepth = %d, want 0", d)
		}
		// Plain gets and puts still work.
		if err := c.Put([]byte{42}, datatype.Byte, 1, 0, 8); err != nil {
			t.Errorf("Put through inert notify config: %v", err)
		}
		buf := make([]byte, 1)
		if err := c.Get(buf, datatype.Byte, 1, 0, 8); err != nil {
			t.Errorf("Get through inert notify config: %v", err)
		}
		return win.UnlockAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}
