package core

import (
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
)

func TestInvalidateRange(t *testing.T) {
	withCache(t, 8192, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		dst := make([]byte, 256)
		// Cache three disjoint entries: [0,256), [512,768), [1024,1280).
		for _, d := range []int{0, 512, 1024} {
			if err := c.Get(dst, datatype.Byte, 256, 1, d); err != nil {
				return err
			}
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if c.CachedEntries() != 3 {
			t.Errorf("CachedEntries = %d", c.CachedEntries())
			return nil
		}

		// A range overlapping only the middle entry.
		if n := c.InvalidateRange(1, 700, 100); n != 1 {
			t.Errorf("InvalidateRange(700,100) dropped %d, want 1", n)
		}
		if c.CachedEntries() != 2 {
			t.Errorf("CachedEntries = %d, want 2", c.CachedEntries())
		}
		if err := c.CheckIntegrity(); err != nil {
			t.Error(err)
			return nil
		}

		// Wrong target: nothing dropped.
		if n := c.InvalidateRange(0, 0, 8192); n != 0 {
			t.Errorf("wrong-target invalidation dropped %d", n)
		}
		// Abutting but not overlapping: nothing dropped.
		if n := c.InvalidateRange(1, 256, 256); n != 0 {
			t.Errorf("abutting invalidation dropped %d", n)
		}
		// Empty/negative size: nothing dropped.
		if n := c.InvalidateRange(1, 0, 0); n != 0 {
			t.Errorf("empty invalidation dropped %d", n)
		}
		// Whole-window range drops the rest.
		if n := c.InvalidateRange(1, 0, 8192); n != 2 {
			t.Errorf("full invalidation dropped %d, want 2", n)
		}
		if c.CachedEntries() != 0 {
			t.Errorf("CachedEntries = %d", c.CachedEntries())
		}
		return c.CheckIntegrity()
	})
}

func TestPutInvalidatesOverlap(t *testing.T) {
	// A put through the cache layer must invalidate the overlapping
	// entry so the next get re-fetches fresh data.
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, 1024)
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
			c, fnErr = New(win, alwaysParams())
			if fnErr == nil {
				fnErr = win.LockAll()
			}
			if fnErr == nil {
				fnErr = func() error {
					dst := make([]byte, 64)
					if err := c.Get(dst, datatype.Byte, 64, 1, 128); err != nil {
						return err
					}
					if err := win.FlushAll(); err != nil {
						return err
					}
					// Overwrite part of the cached range remotely.
					newData := make([]byte, 16)
					for i := range newData {
						newData[i] = 0xAA
					}
					if err := c.Put(newData, datatype.Byte, 16, 1, 160); err != nil {
						return err
					}
					if err := win.FlushAll(); err != nil {
						return err
					}
					// The entry must be gone; the re-get sees the write.
					if c.CachedEntries() != 0 {
						t.Errorf("stale entry survived the put")
					}
					if err := c.Get(dst, datatype.Byte, 64, 1, 128); err != nil {
						return err
					}
					if a := c.LastAccess(); a.Type != AccessDirect {
						t.Errorf("re-get was %v, want direct (refetched)", a.Type)
					}
					if err := win.FlushAll(); err != nil {
						return err
					}
					for i := 0; i < 64; i++ {
						want := pattern(128 + i)
						if i >= 32 && i < 48 {
							want = 0xAA
						}
						if dst[i] != want {
							t.Errorf("byte %d: got %d want %d", i, dst[i], want)
							break
						}
					}
					return nil
				}()
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

// span is a byte range [disp, disp+size) of target 1.
type span struct{ disp, size int }

// TestWriteCoherenceOverlap writes, in each of the three ways a write
// reaches the cache, over cached entries of four shapes, then re-reads
// every span in a later epoch. Entries inside the written span must have
// been patched — they keep hitting — and every read must return the
// written bytes where the write landed: no overlapping entry, CACHED or
// PENDING, may keep the old ones.
func TestWriteCoherenceOverlap(t *testing.T) {
	shapes := []struct {
		name    string
		cached  []span // CACHED before the write
		pending []span // fetched in the write's epoch, PENDING when it lands
		write   span
		patched []span // entries the write patches
	}{
		{name: "exact cover, overlapping neighbour", cached: []span{{400, 200}, {500, 65}},
			write: span{500, 65}, patched: []span{{500, 65}}},
		{name: "one write covering two entries", cached: []span{{100, 64}, {164, 64}},
			write: span{100, 128}, patched: []span{{100, 64}, {164, 64}}},
		{name: "partial cover", cached: []span{{300, 64}}, write: span{320, 20}},
		{name: "PENDING neighbour", cached: []span{{500, 65}}, pending: []span{{400, 200}},
			write: span{500, 65}, patched: []span{{500, 65}}},
	}
	for _, kind := range []string{"Put", "PutNotify", "remote PutNotify"} {
		for _, sh := range shapes {
			t.Run(kind+"/"+sh.name, func(t *testing.T) {
				src := make([]byte, sh.write.size)
				for i := range src {
					src[i] = ^pattern(sh.write.disp + i)
				}
				model := make([]byte, 1024)
				for i := range model {
					model[i] = pattern(i)
				}
				copy(model[sh.write.disp:], src)
				// read re-reads s after the write, checking it against model.
				read := func(c *Cache, win *mpi.Win, s span) (AccessType, bool, error) {
					buf := make([]byte, s.size)
					if err := c.Get(buf, datatype.Byte, s.size, 1, s.disp); err != nil {
						return 0, false, err
					}
					a := c.LastAccess()
					if err := win.FlushAll(); err != nil {
						return 0, false, err
					}
					for i, b := range buf {
						if b != model[s.disp+i] {
							t.Errorf("stale byte at %d reading [%d,%d): got %#x want %#x",
								s.disp+i, s.disp, s.disp+s.size, b, model[s.disp+i])
							break
						}
					}
					return a.Type, a.Issued, nil
				}
				reader := func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
					for _, s := range sh.cached {
						fetch(t, c, win, s.disp, s.size)
					}
					for _, s := range sh.pending {
						if err := c.Get(make([]byte, s.size), datatype.Byte, s.size, 1, s.disp); err != nil {
							return err
						}
					}
					s0 := c.Stats()
					r.Barrier() // the remote writer goes
					r.Barrier() // its write and notification landed
					var err error
					switch kind {
					case "Put":
						err = c.Put(src, datatype.Byte, len(src), 1, sh.write.disp)
					case "PutNotify":
						err = c.PutNotify(src, datatype.Byte, len(src), 1, sh.write.disp, 5)
					default:
						// A get anywhere drains the queue (access-time coherence).
						err = c.Get(make([]byte, 8), datatype.Byte, 8, 1, 900)
					}
					if err != nil {
						return err
					}
					d := c.Stats().Sub(s0)
					patches := d.WriteHits
					if kind == "remote PutNotify" {
						patches = d.NotifyPatches
					}
					if want := min(int64(len(sh.patched)), 1); patches != want {
						t.Errorf("counted %d patches, want %d", patches, want)
					}
					if err := win.FlushAll(); err != nil {
						return err
					}
					for _, s := range sh.patched {
						if typ, issued, err := read(c, win, s); err != nil {
							return err
						} else if typ != AccessHit || issued {
							t.Errorf("patched entry [%d,%d) re-read as %v (issued %v), want a local hit",
								s.disp, s.disp+s.size, typ, issued)
						}
					}
					for _, group := range [][]span{sh.cached, sh.pending, {sh.write}} {
						for _, s := range group {
							if _, _, err := read(c, win, s); err != nil {
								return err
							}
						}
					}
					return c.CheckIntegrity()
				}
				writer := func(win *mpi.Win, r *mpi.Rank) (err error) {
					r.Barrier()
					if kind == "remote PutNotify" {
						err = win.PutNotify(src, datatype.Byte, len(src), 1, sh.write.disp, 5)
					}
					r.Barrier()
					return err
				}
				p := alwaysParams()
				p.NotifyTargeted = true
				withNotifyWorld(t, 1024, p, reader, writer)
			})
		}
	}
}

func TestInvalidateRangeOnPendingEntrySatisfiesWaiters(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		a := make([]byte, 128)
		b := make([]byte, 128)
		if err := c.Get(a, datatype.Byte, 128, 1, 256); err != nil {
			return err
		}
		// Same-epoch repeat: b becomes a waiter on the PENDING entry.
		if err := c.Get(b, datatype.Byte, 128, 1, 256); err != nil {
			return err
		}
		if n := c.InvalidateRange(1, 256, 64); n != 1 {
			t.Errorf("dropped %d, want 1", n)
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, a, 256)
		checkData(t, b, 256) // waiter satisfied despite the invalidation
		return c.CheckIntegrity()
	})
}
