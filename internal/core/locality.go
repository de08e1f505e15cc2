package core

// Cost-aware caching (DESIGN.md §15).
//
// When Params.LocalityAware is set and the backend implements
// rma.LocalityWindow, the cache stops treating every remote byte as
// equally expensive:
//
//   - Admission: a miss on a same-process/same-socket target whose fill
//     cost is below DefaultCheapFillThreshold is served direct without
//     being cached (Stats.CheapSkips) — caching it would spend storage
//     and eviction pressure to save less than the management cost.
//   - Eviction: the §III-D victim score is multiplied by the entry's
//     refill cost, so at equal recency a cheap-to-refill entry loses to
//     an expensive one.
//   - Resilience: retry backoff and breaker cooldowns scale with the
//     target's distance — a flapping far target is probed on its own
//     RTT scale, not a same-socket one.
//
// Everything here lives on the miss/evict/retry paths only — the
// full-hit path stays lock-free, allocation-free and at its 108 vns/op
// budget.

import (
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// Locality constants.
const (
	// DefaultCheapFillThreshold is the fill-cost ceiling under which a
	// same-process/same-socket miss is served direct without admission
	// (Stats.CheapSkips). It keeps small same-socket fills
	// (DefaultModel: ~130 ns same-process, ~420 ns same-socket at
	// 256 B) out of the cache while still admitting large ones, whose
	// transfer term dominates.
	DefaultCheapFillThreshold = 600 * simtime.Nanosecond

	// distScaleRefNs is the same-socket reference fill cost (ns) the
	// backoff/cooldown scale is measured against (DefaultModel, 256 B).
	distScaleRefNs = 424.0
	// distScaleMax caps the backoff/cooldown stretch for very far (or
	// wire-measured, ~100 µs RTT) targets.
	distScaleMax = 8.0
)

// DistanceStats aggregates per-distance-class cache activity. Tracked
// only when the backend reports locality (otherwise all zero).
type DistanceStats struct {
	Gets             int64            // gets towards targets of this class
	Hits             int64            // served from the cache
	Misses           int64            // paid a network trip
	BytesFromNetwork int64            // bytes fetched from this class
	FillTime         simtime.Duration // modeled/measured cost of those fetches
}

// initLocality probes the window for rma.LocalityWindow and arms the
// cost-aware machinery. Called once from New.
func (c *Cache) initLocality() {
	if !c.params.LocalityAware {
		return
	}
	lw, ok := c.win.(rma.LocalityWindow)
	if !ok {
		// Backend cannot tell targets apart: every locality feature is
		// inert, matching the documented Params contract.
		return
	}
	c.lw = lw
	c.distStats = make([]DistanceStats, rma.NumDistanceClasses)
}

// costAware reports whether cost-aware admission/eviction/resilience is
// armed. A single branch on non-locality runs.
func (c *Cache) costAware() bool { return c.lw != nil }

// classOf returns target's distance class, clamped to the rma scale.
func (c *Cache) classOf(target int) int {
	d := c.lw.DistanceClass(target)
	if d < 0 {
		d = 0
	}
	if d >= rma.NumDistanceClasses {
		d = rma.NumDistanceClasses - 1
	}
	return d
}

// cheapSkip reports whether a miss towards target should bypass
// admission: near target, fill cheaper than the threshold.
func (c *Cache) cheapSkip(target, size int) bool {
	if !c.costAware() {
		return false
	}
	return c.classOf(target) <= rma.DistanceSameSocket &&
		c.lw.FillCost(target, size) < DefaultCheapFillThreshold
}

// evictWeight is the refill-cost factor of the victim score: the
// modeled/measured cost of re-fetching e's payload from its target.
// Multiplying the (dimensionless, [0,1]) base score by it preserves
// ordering within a class and makes cheap-to-refill entries lose to
// expensive ones at equal recency (DESIGN.md §15).
func (c *Cache) evictWeight(e *entry) float64 {
	return float64(c.lw.FillCost(e.key.Target, e.payload))
}

// distScale returns the backoff/cooldown multiplier for target: its
// fill cost relative to a same-socket reference, clamped to
// [1, distScaleMax]. Deterministic, so retry schedules stay replayable.
func (c *Cache) distScale(target int) float64 {
	f := float64(c.lw.FillCost(target, 256)) / distScaleRefNs
	if f < 1 {
		return 1
	}
	if f > distScaleMax {
		return distScaleMax
	}
	return f
}

// scaledBackoff stretches one retry backoff by the target's distance.
func (c *Cache) scaledBackoff(d simtime.Duration, target int) simtime.Duration {
	if !c.costAware() {
		return d
	}
	return simtime.Duration(float64(d) * c.distScale(target))
}

// breakerCooldown is the distance-scaled fail-fast window for target.
func (c *Cache) breakerCooldown(target int) simtime.Duration {
	d := c.brk.pol.Cooldown
	if !c.costAware() {
		return d
	}
	return simtime.Duration(float64(d) * c.distScale(target))
}

// noteDistHit attributes one locally served get to target's class.
// Without locality it is one inlined test.
func (c *Cache) noteDistHit(target int) {
	if c.distStats != nil {
		c.countDistHit(target)
	}
}

// countDistHit is noteDistHit's body, kept out of line so that the test
// in front of it inlines.
//
//go:noinline
func (c *Cache) countDistHit(target int) {
	d := &c.distStats[c.classOf(target)]
	d.Gets++
	d.Hits++
}

// noteDistMiss attributes one network fetch of n bytes to target's class.
func (c *Cache) noteDistMiss(target, n int) {
	if c.distStats == nil {
		return
	}
	d := &c.distStats[c.classOf(target)]
	d.Gets++
	d.Misses++
	d.BytesFromNetwork += int64(n)
	d.FillTime += c.lw.FillCost(target, n)
}

// DistanceStats returns a copy of the per-distance-class counters
// (empty when the backend reports no locality).
func (c *Cache) DistanceStats() []DistanceStats {
	out := make([]DistanceStats, len(c.distStats))
	copy(out, c.distStats)
	return out
}
