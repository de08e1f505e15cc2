package core

// The resilient fill path (DESIGN.md §11): every remote get the caching
// layer issues — scalar misses, partial-hit suffixes, coalesced batch
// ranges — funnels through netGet, which layers three defenses over the
// raw transport call:
//
//   - retry with exponential backoff and deterministic jitter, entirely
//     in virtual time (Params.Retry);
//   - a per-target circuit breaker that fails fast while a target is
//     down and probes it half-open after a cooldown (Params.Breaker);
//   - checksum verification of fills against the backend's
//     integrity attestation, so silently corrupted payloads are rejected
//     (and refetched) instead of being delivered or cached
//     (Params.VerifyFills).
//
// When none of the three is configured, netGet is a direct call to
// Window.Get — the fault-free hot path pays one branch.

import (
	"errors"
	"fmt"

	"clampi/internal/datatype"
	"clampi/internal/rma"
)

// ErrBreakerOpen reports a get that failed fast because the target's
// circuit breaker is open. Matches rma.ErrTransient: the condition is
// recoverable (the breaker half-opens after its cooldown), so retry
// loops treat it like any other transient failure — except that the
// attempt never reaches the network and never feeds back into the
// breaker (tryGet returns before the transport call). The sentinel is a
// single package-level value, so the fail-fast path allocates nothing.
var ErrBreakerOpen = fmt.Errorf("%w: circuit breaker open", rma.ErrTransient)

// netGet issues one remote get through the resilience layer. It is the
// single network funnel of the caching layer: misses, partial-hit
// suffixes and issueRanges all land here.
//
// The retry loop is closure-free and allocation-free; backoffs advance
// the origin's virtual clock with Advance (the origin is blocked
// waiting, not computing, so the wait is modelled rather than measured).
func (c *Cache) netGet(dst []byte, dtype datatype.Datatype, count, target, disp int) error {
	if c.distStats != nil {
		// Attribute the trip to the target's distance class at the
		// single funnel every remote fetch passes through.
		c.noteDistMiss(target, datatype.TransferSize(dtype, count))
	}
	if !c.resilient {
		return c.win.Get(dst, dtype, count, target, disp)
	}
	if c.dw == nil {
		return c.retryGet(dst, dtype, count, target, disp)
	}
	// Deadline-aware transport: clear the per-op bound on the way out so
	// a later non-resilient caller of the same window is not clipped by
	// this operation's leftover budget.
	err := c.retryGet(dst, dtype, count, target, disp)
	c.dw.SetOpDeadline(0)
	return err
}

// retryGet is netGet's retry loop, split out so the deadline-clearing
// epilogue above covers every exit path.
func (c *Cache) retryGet(dst []byte, dtype datatype.Datatype, count, target, disp int) error {
	start := c.clock.Now()
	attempt := 1
	for {
		if c.dw != nil && c.retry.Deadline > 0 {
			// Hand the transport the budget still unspent, so a socket op
			// that hangs fails with ErrTimeout inside the attempt instead
			// of blowing through the virtual-time deadline check below.
			// The transport maps the virtual duration onto a wall-clock
			// socket deadline (rma.DeadlineWindow); on the simulated
			// backend c.dw is nil and the check below is the only gate.
			remaining := c.retry.Deadline - (c.clock.Now() - start)
			if remaining <= 0 {
				return fmt.Errorf("%w: retry deadline exhausted", rma.ErrTimeout)
			}
			c.dw.SetOpDeadline(remaining)
		}
		err := c.tryGet(dst, dtype, count, target, disp)
		if err == nil {
			return nil
		}
		if !errors.Is(err, rma.ErrTransient) {
			return err // misuse family: retrying can never fix it
		}
		if errors.Is(err, rma.ErrTimeout) {
			c.stats.Timeouts++
		}
		if !c.retry.Unlimited() && attempt >= c.retry.MaxAttempts {
			return err
		}
		if c.retry.Budget > 0 && c.retryBudget >= c.retry.Budget {
			return err
		}
		d := c.retry.Backoff(attempt, c.retryRng)
		if c.retry.Deadline > 0 && c.clock.Now()-start+d > c.retry.Deadline {
			return err
		}
		c.clock.Advance(d)
		c.retryBudget++
		c.stats.Retries++
		attempt++
	}
}

// tryGet is one attempt of netGet: breaker gate, transport call,
// integrity verification, breaker bookkeeping.
func (c *Cache) tryGet(dst []byte, dtype datatype.Datatype, count, target, disp int) error {
	if c.brk != nil && !c.brk.allow(target, c.clock.Now()) {
		return ErrBreakerOpen
	}
	err := c.win.Get(dst, dtype, count, target, disp)
	if err == nil && c.verify && c.iw != nil {
		if size := datatype.TransferSize(dtype, count); size > 0 {
			err = c.verifyFill(dst[:size], target, disp, size) //clampi:epoch simulated transport fills dst at issue time; verification is the completion event (see verifyFill)
		}
	}
	if c.brk != nil {
		if err == nil {
			c.brk.onSuccess(target)
		} else if errors.Is(err, rma.ErrTransient) {
			if c.brk.onFailure(target, c.clock.Now()) {
				c.stats.BreakerOpens++
			}
		}
	}
	return err
}

// verifyRange verifies one delivered byte-range get (the batch issue
// path); nil when verification is disabled or unsupported.
func (c *Cache) verifyRange(r *rma.GetOp) error {
	if !c.verify || c.iw == nil || len(r.Dst) == 0 {
		return nil
	}
	return c.verifyFill(r.Dst, r.Target, r.Disp, len(r.Dst))
}

// verifyFill compares a delivered payload against the backend's
// attestation of the target range. A mismatch is reported as
// rma.ErrCorrupt — transient, so the retry loop refetches. Ranges the
// backend cannot attest are accepted unverified.
//
// The simulated transport materializes payload bytes at issue time, so
// verification can run immediately; a real implementation would verify
// at the completion event instead (same state machine, later trigger).
func (c *Cache) verifyFill(data []byte, target, disp, size int) error {
	want, aerr := c.iw.Checksum(target, disp, size)
	if aerr != nil {
		return nil
	}
	sum := rma.ChecksumBytes(data)
	c.recordMgmt(c.charge(checksumCost(size)))
	if sum != want {
		c.stats.CorruptFills++
		return rma.ErrCorrupt
	}
	return nil
}
