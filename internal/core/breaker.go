package core

// Per-target circuit breaker (DESIGN.md §11). The retry loop in
// resilience.go handles individual transient failures; the breaker
// handles a *failing target*: once consecutive transient failures towards
// one rank cross a threshold, further attempts fail fast for a virtual-
// time cooldown instead of hammering a peer that is down. After the
// cooldown the breaker goes half-open and lets probe attempts through;
// enough successful probes close it again, one failed probe reopens it.
//
// All state is per (origin, target) — it lives inside the origin's Cache
// and follows the same single-goroutine discipline as the rest of the
// origin-side state. All timing is virtual.

import "clampi/internal/simtime"

// BreakerPolicy configures the per-target circuit breaker. Zero values
// select the defaults below.
type BreakerPolicy struct {
	// FailureThreshold is the number of consecutive transient failures
	// towards one target that opens its breaker.
	FailureThreshold int
	// Cooldown is the virtual time an open breaker fails fast before
	// allowing half-open probes.
	Cooldown simtime.Duration
	// HalfOpenProbes is the number of consecutive successes required to
	// close a half-open breaker.
	HalfOpenProbes int
}

// Defaults for BreakerPolicy fields left zero.
const (
	DefaultFailureThreshold = 5
	DefaultBreakerCooldown  = 20 * simtime.Microsecond
	DefaultHalfOpenProbes   = 1
)

// DefaultBreakerPolicy returns the policy the drivers use.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{
		FailureThreshold: DefaultFailureThreshold,
		Cooldown:         DefaultBreakerCooldown,
		HalfOpenProbes:   DefaultHalfOpenProbes,
	}
}

func (p *BreakerPolicy) setDefaults() {
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = DefaultFailureThreshold
	}
	if p.Cooldown <= 0 {
		p.Cooldown = DefaultBreakerCooldown
	}
	if p.HalfOpenProbes <= 0 {
		p.HalfOpenProbes = DefaultHalfOpenProbes
	}
}

// breakerState is one target's position in the closed→open→half-open
// state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// targetBreaker is the breaker state towards one target rank.
type targetBreaker struct {
	state     breakerState
	fails     int              // consecutive transient failures (closed)
	successes int              // consecutive probe successes (half-open)
	openUntil simtime.Duration // end of the fail-fast cooldown (open)
}

// breaker tracks one origin's breakers towards every target.
type breaker struct {
	pol     BreakerPolicy
	targets []targetBreaker
}

func newBreaker(pol BreakerPolicy, worldSize int) *breaker {
	pol.setDefaults()
	return &breaker{pol: pol, targets: make([]targetBreaker, worldSize)}
}

// allow reports whether an attempt towards target may be issued now. An
// open breaker whose cooldown has elapsed transitions to half-open and
// admits the attempt as a probe.
func (b *breaker) allow(target int, now simtime.Duration) bool {
	t := &b.targets[target]
	switch t.state {
	case breakerOpen:
		if now < t.openUntil {
			return false
		}
		t.state = breakerHalfOpen
		t.successes = 0
		return true
	default: // closed, or half-open probing
		return true
	}
}

// onSuccess records a successful attempt towards target.
func (b *breaker) onSuccess(target int) {
	t := &b.targets[target]
	switch t.state {
	case breakerClosed:
		t.fails = 0
	case breakerHalfOpen:
		t.successes++
		if t.successes >= b.pol.HalfOpenProbes {
			t.state = breakerClosed
			t.fails = 0
		}
	}
}

// onFailure records a transient failure towards target and returns true
// when it transitions the breaker to open (including a failed half-open
// probe reopening it).
func (b *breaker) onFailure(target int, now simtime.Duration) bool {
	t := &b.targets[target]
	switch t.state {
	case breakerClosed:
		t.fails++
		if t.fails < b.pol.FailureThreshold {
			return false
		}
		t.state = breakerOpen
		t.openUntil = now + b.pol.Cooldown
		return true
	case breakerHalfOpen:
		t.state = breakerOpen
		t.openUntil = now + b.pol.Cooldown
		return true
	}
	return false
}

// closed reports whether target's breaker is fully closed (healthy).
func (b *breaker) closed(target int) bool {
	return b.targets[target].state == breakerClosed
}
