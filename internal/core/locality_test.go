package core

// Tests of the locality-aware machinery (DESIGN.md §15): cost-aware
// admission bypass, refill-cost-weighted eviction, distance-scaled
// resilience and the per-distance counters.

import (
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// withWorld runs fn on every rank of a size-rank world under cfg; every
// rank's region holds regionSize bytes of pattern data. fn must report
// failures via t.Errorf (Fatalf would desynchronize the collectives).
func withWorld(t *testing.T, size int, cfg mpi.Config, regionSize int, fn func(r *mpi.Rank, win *mpi.Win) error) {
	t.Helper()
	err := mpi.Run(size, cfg, func(r *mpi.Rank) error {
		region := make([]byte, regionSize)
		for i := range region {
			region[i] = pattern(i)
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		fnErr := fn(r, win)
		r.Barrier()
		return fnErr
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheapSkipAdmission: with locality awareness on, small same-socket
// fills are served direct and never admitted, while larger same-socket
// fills and same-node fills cache normally — and the per-distance-class
// counters attribute every get to the right class.
func TestCheapSkipAdmission(t *testing.T) {
	// One 4-rank node: rank 1 shares rank 0's socket, rank 2 is on the
	// other socket (mpi half-split mapping).
	cfg := mpi.Config{RanksPerNode: 4}
	params := alwaysParams()
	params.LocalityAware = true
	withWorld(t, 4, cfg, 16<<10, func(r *mpi.Rank, win *mpi.Win) error {
		if r.ID() != 0 {
			return nil
		}
		c, err := New(win, params)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		defer win.UnlockAll()

		if got := win.DistanceClass(1); got != rma.DistanceSameSocket {
			t.Errorf("DistanceClass(1) = %d, want SameSocket", got)
		}
		if got := win.DistanceClass(2); got != rma.DistanceSameNode {
			t.Errorf("DistanceClass(2) = %d, want SameNode", got)
		}

		dst := make([]byte, 256)
		// Small same-socket get: bypassed twice — never cached.
		for i := 0; i < 2; i++ {
			if err := c.Get(dst, datatype.Byte, 256, 1, 0); err != nil {
				return err
			}
			if got := c.LastAccess(); got.Type != AccessDirect || !got.Issued {
				t.Errorf("cheap get %d = %+v, want direct+issued", i, got)
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			checkData(t, dst, 0)
		}
		// Large same-socket get: fill cost above the threshold — admitted.
		big := make([]byte, 4096)
		if err := c.Get(big, datatype.Byte, 4096, 1, 1024); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		checkData(t, big, 1024)
		if err := c.Get(big, datatype.Byte, 4096, 1, 1024); err != nil {
			return err
		}
		if got := c.LastAccess(); got.Type != AccessHit {
			t.Errorf("large same-socket re-get = %+v, want hit", got)
		}
		// Small same-node get: other socket, admitted regardless of size.
		if err := c.Get(dst, datatype.Byte, 256, 2, 0); err != nil {
			return err
		}
		if err := win.FlushAll(); err != nil {
			return err
		}
		if err := c.Get(dst, datatype.Byte, 256, 2, 0); err != nil {
			return err
		}
		if got := c.LastAccess(); got.Type != AccessHit {
			t.Errorf("same-node re-get = %+v, want hit", got)
		}
		checkData(t, dst, 0)

		s := c.Stats()
		if s.CheapSkips != 2 {
			t.Errorf("CheapSkips = %d, want 2", s.CheapSkips)
		}
		ds := c.DistanceStats()
		if len(ds) != rma.NumDistanceClasses {
			t.Errorf("DistanceStats len = %d, want %d", len(ds), rma.NumDistanceClasses)
			return nil
		}
		sock := ds[rma.DistanceSameSocket]
		if sock.Gets != 4 || sock.Misses != 3 || sock.Hits != 1 {
			t.Errorf("same-socket stats = %+v, want 4 gets / 3 misses / 1 hit", sock)
		}
		if want := int64(256 + 256 + 4096); sock.BytesFromNetwork != want {
			t.Errorf("same-socket BytesFromNetwork = %d, want %d", sock.BytesFromNetwork, want)
		}
		node := ds[rma.DistanceSameNode]
		if node.Gets != 2 || node.Misses != 1 || node.Hits != 1 || node.BytesFromNetwork != 256 {
			t.Errorf("same-node stats = %+v, want 2 gets / 1 miss / 1 hit / 256 B", node)
		}
		if sock.FillTime <= 0 || node.FillTime <= sock.FillTime/4 {
			t.Errorf("fill times sock=%v node=%v look wrong", sock.FillTime, node.FillTime)
		}
		return nil
	})
}

// TestCostAwareEviction: at a capacity eviction with older-far vs
// newer-near entries, the locality-blind temporal score evicts the far
// (older) entry, while the cost-weighted score sacrifices the near one.
func TestCostAwareEviction(t *testing.T) {
	// Ranks 0,1 share a node (different sockets); rank 4 is other-group.
	cfg := mpi.Config{RanksPerNode: 2, NodesPerGroup: 1}
	for _, aware := range []bool{false, true} {
		params := alwaysParams()
		params.Scheme = SchemeTemporal
		params.StorageBytes = 10 << 10 // two 4 KiB payloads fit, not three
		params.SampleSize = 4096       // >= IndexSlots: scan sees every candidate
		params.LocalityAware = aware
		withWorld(t, 6, cfg, 16<<10, func(r *mpi.Rank, win *mpi.Win) error {
			if r.ID() != 0 {
				return nil
			}
			c, err := New(win, params)
			if err != nil {
				return err
			}
			if err := win.LockAll(); err != nil {
				return err
			}
			defer win.UnlockAll()

			buf := make([]byte, 4096)
			get := func(target, disp int) error {
				if err := c.Get(buf, datatype.Byte, 4096, target, disp); err != nil {
					return err
				}
				return win.FlushAll()
			}
			// Older far entry, then newer near entry, then a third fill
			// that forces one capacity eviction.
			if err := get(4, 0); err != nil { // far, oldest
				return err
			}
			if err := get(1, 0); err != nil { // near, newer
				return err
			}
			if err := get(4, 8192); err != nil { // forces the eviction
				return err
			}
			if got := c.LastAccess(); got.Type != AccessCapacity {
				t.Errorf("aware=%v: third fill = %+v, want capacity eviction", aware, got)
			}
			if s := c.Stats(); s.Capacity != 1 {
				t.Errorf("aware=%v: Capacity = %d, want exactly 1 eviction", aware, s.Capacity)
			}
			// Exactly one of {far, near} was evicted; probing far tells us
			// which (probing both would trigger fresh evictions).
			if err := c.Get(buf, datatype.Byte, 4096, 4, 0); err != nil {
				return err
			}
			farHit := c.LastAccess().Type == AccessHit
			if err := win.FlushAll(); err != nil {
				return err
			}
			if aware && !farHit {
				t.Errorf("cost-aware: far entry was evicted, want cheap near entry sacrificed")
			}
			if !aware && farHit {
				t.Errorf("locality-blind: far entry survived, want oldest (far) evicted")
			}
			return nil
		})
	}
}

// TestDistanceScaledResilience: backoff and breaker cooldowns stretch
// with the target's distance class, deterministically, and only in
// cost-aware mode.
func TestDistanceScaledResilience(t *testing.T) {
	cfg := mpi.Config{RanksPerNode: 2, NodesPerGroup: 1}
	for _, aware := range []bool{false, true} {
		params := alwaysParams()
		params.LocalityAware = aware
		retry := rma.DefaultRetryPolicy()
		brk := DefaultBreakerPolicy()
		params.Retry = &retry
		params.Breaker = &brk
		withWorld(t, 6, cfg, 4096, func(r *mpi.Rank, win *mpi.Win) error {
			if r.ID() != 0 {
				return nil
			}
			c, err := New(win, params)
			if err != nil {
				return err
			}
			const base = 1000 * simtime.Nanosecond
			near := c.scaledBackoff(base, 1) // same node
			far := c.scaledBackoff(base, 4)  // other group
			nearCD := c.breakerCooldown(1)
			farCD := c.breakerCooldown(4)
			if !aware {
				if near != base || far != base {
					t.Errorf("blind backoffs = %v/%v, want %v unchanged", near, far, base)
				}
				if nearCD != brk.Cooldown || farCD != brk.Cooldown {
					t.Errorf("blind cooldowns = %v/%v, want %v", nearCD, farCD, brk.Cooldown)
				}
				return nil
			}
			if near < base || far <= near {
				t.Errorf("aware backoffs near=%v far=%v, want base <= near < far", near, far)
			}
			if far > simtime.Duration(distScaleMax*float64(base)) {
				t.Errorf("far backoff %v exceeds the %vx cap", far, distScaleMax)
			}
			if farCD <= nearCD {
				t.Errorf("aware cooldowns near=%v far=%v, want near < far", nearCD, farCD)
			}
			if again := c.scaledBackoff(base, 4); again != far {
				t.Errorf("backoff not deterministic: %v then %v", far, again)
			}
			return nil
		})
	}
}
