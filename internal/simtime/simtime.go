// Package simtime provides the hybrid virtual clock used throughout the
// CLaMPI reproduction.
//
// The paper measures wall-clock time on dedicated Cray XC nodes. This
// reproduction runs many simulated ranks on a single machine, so wall time
// of a whole run is meaningless. Instead each rank owns a Clock that keeps
// two shares of its timeline apart:
//
//   - Advance(d): modelled delays (network latency, waiting) move the clock
//     forward without the rank being busy.
//   - Busy(d): locally executed work whose cost is the point of the paper
//     (cache lookup, eviction, memory copies), charged at its modelled
//     cost, is the rank's busy share.
//   - Charge(f): work that genuinely takes real time — a socket exchange of
//     the wire transport — is measured with the monotonic clock and added
//     to the busy share.
//
// The result is a per-rank timeline in which cache-management overheads
// compose with network delays, which is exactly the trade-off CLaMPI
// navigates.
//
// Invariant (enforced by internal/analysis/simclock): this package is
// the only place allowed to sample the wall clock (time.Now/time.Since
// inside Charge, and its test), apart from lines annotated as genuinely
// wall-clock. Everywhere else latency flows through Clock, keeping runs
// deterministic and reproducible.
package simtime

import "time"

// Duration is a virtual duration in nanoseconds. It is kept as a separate
// type from time.Duration to make accidental mixing of real and virtual
// time a compile error in most code paths.
type Duration int64

// Common virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromReal converts a real duration to a virtual one (1:1 in nanoseconds).
func FromReal(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Real converts a virtual duration to a time.Duration (1:1 in nanoseconds).
func (d Duration) Real() time.Duration { return time.Duration(d) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// String formats the duration using time.Duration formatting rules.
func (d Duration) String() string { return time.Duration(d).String() }

// Clock is a single rank's virtual clock. A Clock is not safe for
// concurrent use: each rank goroutine owns exactly one Clock.
type Clock struct {
	now Duration

	// measured accumulates only the busy part of the timeline (Busy,
	// Charge). The difference now-measured is the modelled
	// part; benchmarks use the split to compute communication/computation
	// overlap (paper Fig. 8).
	measured Duration
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time since the clock's origin.
func (c *Clock) Now() Duration { return c.now }

// Measured returns the portion of virtual time accumulated through Busy
// and Charge, i.e. the busy time of this rank.
func (c *Clock) Measured() Duration { return c.measured }

// Modelled returns the portion of virtual time accumulated through Advance.
func (c *Clock) Modelled() Duration { return c.now - c.measured }

// Advance moves the clock forward by a modelled duration. Negative
// durations are ignored so latency models cannot move time backwards.
func (c *Clock) Advance(d Duration) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock forward to t if t is in the future. It is used
// by synchronization primitives (barriers, flushes) that align a rank with
// the latest participant.
func (c *Clock) AdvanceTo(t Duration) {
	if t > c.now {
		c.now = t
	}
}

// Busy advances the clock by a modeled duration of CPU-busy work: unlike
// Advance, the time is attributed to the measured (busy) share, so
// overlap computations treat it as non-overlappable. Negative durations
// are ignored.
func (c *Clock) Busy(d Duration) {
	if d > 0 {
		c.now += d
		c.measured += d
	}
}

// Charge runs f, measures its real duration with the monotonic clock, and
// advances the virtual clock's busy share by that amount, returning it:
// the bridge for work that genuinely takes real time, such as a socket
// exchange of the wire transport. Cache-management costs are modelled
// instead (Busy).
func (c *Clock) Charge(f func()) Duration {
	start := time.Now()
	f()
	d := FromReal(time.Since(start))
	if d < 0 {
		d = 0
	}
	c.now += d
	c.measured += d
	return d
}

// Reset rewinds the clock to zero. Benchmarks reuse clocks across
// repetitions to avoid re-allocating rank state.
func (c *Clock) Reset() {
	c.now = 0
	c.measured = 0
}
