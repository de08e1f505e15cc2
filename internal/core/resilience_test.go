package core

// Tests of the resilience layer (DESIGN.md §11): retry, circuit breaker,
// stale serving, fill verification, and the batched partial-delivery
// path, all driven by the deterministic injector in internal/fault.

import (
	"errors"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/fault"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// resilientParams is alwaysParams plus the full resilience layer.
func resilientParams(retry rma.RetryPolicy, brk *BreakerPolicy) Params {
	p := alwaysParams()
	p.Retry = &retry
	p.Breaker = brk
	p.VerifyFills = true
	return p
}

// withFaultyCache runs a size-rank world; rank 0 gets a Cache over a
// fault-wrapped window (every non-zero region byte follows pattern) and
// runs fn. The injector is seeded with seed. As in withCache, fn reports
// failures with t.Errorf and returns, never with Fatalf.
func withFaultyCache(t *testing.T, size, regionSize int, params Params, sc fault.Scenario, seed int64, fn func(c *Cache, fw *fault.Window, r *mpi.Rank) error) {
	t.Helper()
	err := mpi.Run(size, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, regionSize)
		if r.ID() != 0 {
			for i := range region {
				region[i] = pattern(i)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			fw := fault.Wrap(win, sc, seed)
			var c *Cache
			c, fnErr = New(fw, params)
			if fnErr == nil {
				fnErr = win.LockAll()
			}
			if fnErr == nil {
				fnErr = fn(c, fw, r)
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

func TestRetryRecoversDroppedGets(t *testing.T) {
	retry := rma.DefaultRetryPolicy()
	retry.MaxAttempts = 0 // unlimited
	sc := fault.Scenario{Name: "drop", DropRate: 0.5}
	withFaultyCache(t, 2, 4096, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		// Fresh buffer per get (PENDING admissions keep the destination
		// as their copy-in source until epoch closure); buffers checked
		// only after closure, per the epoch contract — the repeat visits
		// are PENDING hits whose payload arrives at the flush.
		const n = 32
		bufs := make([][]byte, n)
		for i := 0; i < n; i++ {
			bufs[i] = make([]byte, 128)
			disp := (i * 128) % 2048
			if err := c.Get(bufs[i], datatype.Byte, 128, 1, disp); err != nil {
				return err
			}
		}
		if err := c.Win().FlushAll(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			checkData(t, bufs[i], (i*128)%2048)
		}
		s := c.Stats()
		if fw.Counts().Drops == 0 {
			t.Error("scenario injected no drops")
		}
		if s.Retries == 0 {
			t.Error("no retries recorded despite injected drops")
		}
		return nil
	})
}

func TestRetryExhaustionSurfacesTransient(t *testing.T) {
	retry := rma.RetryPolicy{MaxAttempts: 3}
	sc := fault.Scenario{Name: "allfail", DropRate: 1}
	withFaultyCache(t, 2, 4096, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		err := c.Get(dst, datatype.Byte, len(dst), 1, 0)
		if !errors.Is(err, rma.ErrTransient) {
			t.Errorf("Get under total loss = %v, want ErrTransient", err)
		}
		if got := c.Stats().Retries; got != 2 {
			t.Errorf("Retries = %d, want 2 (3 attempts)", got)
		}
		return nil
	})
}

func TestRetryBudgetStopsRetrying(t *testing.T) {
	retry := rma.RetryPolicy{MaxAttempts: 0, Budget: 4}
	sc := fault.Scenario{Name: "allfail", DropRate: 1}
	withFaultyCache(t, 2, 4096, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		for i := 0; i < 3; i++ {
			if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); !errors.Is(err, rma.ErrTransient) {
				return err
			}
		}
		if got := c.Stats().Retries; got != 4 {
			t.Errorf("Retries = %d, want exactly the budget of 4", got)
		}
		return nil
	})
}

func TestRetryDeadlineBoundsOneOp(t *testing.T) {
	retry := rma.RetryPolicy{
		MaxAttempts: 0,
		BaseBackoff: 10 * simtime.Microsecond,
		MaxBackoff:  10 * simtime.Microsecond,
		Deadline:    35 * simtime.Microsecond,
	}
	sc := fault.Scenario{Name: "allfail", DropRate: 1}
	withFaultyCache(t, 2, 4096, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		t0 := r.Clock().Now()
		if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); !errors.Is(err, rma.ErrTransient) {
			return err
		}
		if spent := r.Clock().Now() - t0; spent > retry.Deadline {
			t.Errorf("op spent %v, deadline %v", spent, retry.Deadline)
		}
		return nil
	})
}

func TestTimeoutsCountedAndRecovered(t *testing.T) {
	retry := rma.DefaultRetryPolicy()
	retry.MaxAttempts = 0
	sc := fault.Scenario{Name: "timeout", TimeoutRate: 0.5, Timeout: 5 * simtime.Microsecond}
	withFaultyCache(t, 2, 4096, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		for i := 0; i < 16; i++ {
			dst := make([]byte, 128)
			disp := i * 128
			if err := c.Get(dst, datatype.Byte, len(dst), 1, disp); err != nil {
				return err
			}
			checkData(t, dst, disp)
		}
		if c.Stats().Timeouts == 0 {
			t.Error("no timeouts counted")
		}
		if c.Stats().Timeouts != fw.Counts().Timeouts {
			t.Errorf("cache counted %d timeouts, injector delivered %d", c.Stats().Timeouts, fw.Counts().Timeouts)
		}
		return nil
	})
}

func TestBreakerOpensFailsFastAndRecovers(t *testing.T) {
	retry := rma.RetryPolicy{MaxAttempts: 2}
	brk := BreakerPolicy{FailureThreshold: 2, Cooldown: 10 * simtime.Microsecond, HalfOpenProbes: 2}
	// Outage towards rank 1 for the first 200 µs of virtual time.
	sc := fault.Scenario{Name: "outage", Outages: []fault.Outage{{Target: 1, From: 0, To: 200 * simtime.Microsecond}}}
	withFaultyCache(t, 2, 4096, resilientParams(retry, &brk), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		dst := make([]byte, 64)
		// Trip the breaker: two gets, two failed attempts each.
		for i := 0; i < 2; i++ {
			if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); !errors.Is(err, rma.ErrTransient) {
				t.Errorf("get during outage = %v, want transient", err)
			}
		}
		if c.Stats().BreakerOpens == 0 {
			t.Error("breaker never opened")
			return nil
		}
		opsBefore := fw.Counts().Ops
		// Fail-fast: with the breaker open and no cooldown elapsed, the
		// next attempt must not reach the injector.
		if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); !errors.Is(err, ErrBreakerOpen) {
			t.Errorf("get with open breaker = %v, want ErrBreakerOpen", err)
		}
		if fw.Counts().Ops != opsBefore {
			t.Error("open breaker still let the attempt reach the network")
		}
		// Ride out the outage in virtual time; half-open probes must
		// re-close the breaker and serve clean data again.
		r.Clock().AdvanceTo(250 * simtime.Microsecond)
		if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
			return err
		}
		checkData(t, dst, 0)
		// Healthy again: admissions resume (the first post-recovery get
		// was degraded to a direct get; this one must hit or admit).
		if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
			return err
		}
		s := c.Stats()
		if s.Failing == 0 {
			t.Error("no failing (direct, unadmitted) access recorded during degradation")
		}
		return nil
	})
}

func TestVerifyFillsDetectsCorruption(t *testing.T) {
	retry := rma.DefaultRetryPolicy()
	retry.MaxAttempts = 0
	sc := fault.Scenario{Name: "corrupt", CorruptRate: 0.5}
	withFaultyCache(t, 2, 4096, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		for i := 0; i < 16; i++ {
			dst := make([]byte, 128)
			disp := i * 128
			if err := c.Get(dst, datatype.Byte, len(dst), 1, disp); err != nil {
				return err
			}
			// Every delivered payload must be clean: corrupted fills
			// are detected and refetched, never served.
			checkData(t, dst, disp)
		}
		if fw.Counts().Corrupts == 0 {
			t.Error("scenario injected no corruption")
			return nil
		}
		if c.Stats().CorruptFills == 0 {
			t.Error("injected corruption was never detected")
		}
		if err := c.Win().FlushAll(); err != nil {
			return err
		}
		// Cached payloads must pass the per-entry checksum audit.
		if err := c.CheckIntegrity(); err != nil {
			t.Errorf("CheckIntegrity after corrupt fills: %v", err)
		}
		return nil
	})
}

func TestShortReadsRefetched(t *testing.T) {
	retry := rma.DefaultRetryPolicy()
	retry.MaxAttempts = 0
	sc := fault.Scenario{Name: "short", ShortReadRate: 0.5}
	withFaultyCache(t, 2, 4096, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		for i := 0; i < 16; i++ {
			dst := make([]byte, 128)
			disp := i * 128
			if err := c.Get(dst, datatype.Byte, len(dst), 1, disp); err != nil {
				return err
			}
			checkData(t, dst, disp)
		}
		if fw.Counts().ShortReads == 0 {
			t.Error("scenario injected no short reads")
			return nil
		}
		if c.Stats().Retries == 0 {
			t.Error("short reads were never retried")
		}
		return nil
	})
}

func TestServeStaleAcrossEpochClosure(t *testing.T) {
	retry := rma.RetryPolicy{MaxAttempts: 1}
	brk := BreakerPolicy{FailureThreshold: 1, Cooldown: simtime.Second, HalfOpenProbes: 1}
	// Rank 2 is permanently down; rank 1 is healthy.
	sc := fault.Scenario{Name: "down2", Outages: []fault.Outage{{Target: 2, From: 0, To: 3600 * simtime.Second}}}
	params := resilientParams(retry, &brk)
	params.Mode = Transparent
	params.ServeStale = true
	withFaultyCache(t, 3, 4096, params, sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		dst := make([]byte, 128)
		// Fill from the healthy target and complete the epoch normally.
		if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
			return err
		}
		if err := c.Win().FlushAll(); err != nil {
			return err
		}
		// All breakers closed at that closure: transparent invalidation ran.
		if got := c.Stats().Invalidations; got != 1 {
			t.Errorf("Invalidations = %d, want 1", got)
			return nil
		}
		// Refill, then open rank 2's breaker and close the epoch again:
		// the invalidation must be deferred this time.
		if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
			return err
		}
		if err := c.Get(dst, datatype.Byte, len(dst), 2, 0); !errors.Is(err, rma.ErrTransient) {
			t.Errorf("get from dead rank = %v, want transient", err)
		}
		if c.Stats().BreakerOpens == 0 {
			t.Error("breaker never opened")
			return nil
		}
		if err := c.Win().FlushAll(); err != nil {
			return err
		}
		if got := c.Stats().Invalidations; got != 1 {
			t.Errorf("Invalidations after deferred closure = %d, want still 1", got)
			return nil
		}
		// The retained entry serves stale hits with correct (read-only
		// region) data.
		if err := c.Get(dst, datatype.Byte, len(dst), 1, 0); err != nil {
			return err
		}
		checkData(t, dst, 0)
		if c.Stats().StaleServes == 0 {
			t.Error("no stale serve counted for the retained entry")
		}
		// An explicit Invalidate overrides the deferral.
		c.Invalidate()
		if got := c.Stats().Invalidations; got != 2 {
			t.Errorf("Invalidations after explicit call = %d, want 2", got)
		}
		return nil
	})
}

func TestBatchPartialDeliveryUnderFaults(t *testing.T) {
	retry := rma.DefaultRetryPolicy()
	retry.MaxAttempts = 0
	sc := fault.Scenario{Name: "mix", DropRate: 0.3, ShortReadRate: 0.2}
	withFaultyCache(t, 3, 8192, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		const n = 24
		bufs := make([][]byte, n)
		ops := make([]rma.GetOp, n)
		for i := range ops {
			bufs[i] = make([]byte, 64)
			ops[i] = rma.GetOp{Dst: bufs[i], Target: 1 + i%2, Disp: (i / 2) * 96}
		}
		if err := c.GetBatch(ops); err != nil {
			return err
		}
		for i := range ops {
			checkData(t, bufs[i], ops[i].Disp)
		}
		s := c.Stats()
		if fw.Counts().Total() == 0 {
			t.Error("no faults injected into the batch")
			return nil
		}
		if s.Retries == 0 {
			t.Error("batch faults never retried")
		}
		if s.BatchOps != n {
			t.Errorf("BatchOps = %d, want %d", s.BatchOps, n)
		}
		if s.Gets != n {
			t.Errorf("Gets = %d, want %d", s.Gets, n)
		}
		if got := s.Hits + s.Direct + s.Conflicting + s.Capacity + s.Failing; got != n {
			t.Errorf("classified accesses = %d, want %d (stats must stay consistent under batch retries)", got, n)
		}
		if err := c.Win().FlushAll(); err != nil {
			return err
		}
		return c.CheckIntegrity()
	})
}

func TestBatchErrorSurfacesWhenExhausted(t *testing.T) {
	retry := rma.RetryPolicy{MaxAttempts: 2}
	sc := fault.Scenario{Name: "allfail", DropRate: 1}
	withFaultyCache(t, 2, 4096, resilientParams(retry, nil), sc, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		ops := make([]rma.GetOp, 4)
		for i := range ops {
			ops[i] = rma.GetOp{Dst: make([]byte, 64), Target: 1, Disp: i * 64}
		}
		if err := c.GetBatch(ops); !errors.Is(err, rma.ErrTransient) {
			t.Errorf("GetBatch under total loss = %v, want ErrTransient", err)
		}
		return nil
	})
}

// TestResilientHotPathAllocFree asserts the tentpole perf invariant at
// unit-test level (the perfgate enforces it on the committed baseline):
// with retry, breaker and verification all armed but no faults injected,
// the steady-state full-hit path performs zero heap allocations.
func TestResilientHotPathAllocFree(t *testing.T) {
	retry := rma.DefaultRetryPolicy()
	brk := DefaultBreakerPolicy()
	withFaultyCache(t, 2, 4096, resilientParams(retry, &brk), fault.Scenario{Name: "clean"}, 7, func(c *Cache, fw *fault.Window, r *mpi.Rank) error {
		dst := make([]byte, 256)
		if err := c.Get(dst, datatype.Byte, len(dst), 1, 128); err != nil {
			return err
		}
		if err := c.Win().FlushAll(); err != nil {
			return err
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.Get(dst, datatype.Byte, len(dst), 1, 128); err != nil {
				t.Error(err)
			}
		})
		if allocs != 0 {
			t.Errorf("resilient full-hit path: %.1f allocs/op, want 0", allocs)
		}
		return nil
	})
}
