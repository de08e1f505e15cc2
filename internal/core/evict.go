package core

import (
	"slices"

	"math"

	"clampi/internal/cuckoo"
	"clampi/internal/simtime"
)

// temporalScore is R_T(x) = x.last / i: the older the last matching get,
// the lower the score (§III-D1).
func (c *Cache) temporalScore(last int64) float64 {
	if c.getSeq == 0 {
		return 0
	}
	return float64(last) / float64(c.getSeq)
}

// positionalScore is R_P(c) = min(|ags − d_c| / ags, 1): entries whose
// adjacent free space is close to the average get size score low — i.e.
// evicting them likely frees a hole of a usable size (§III-C2).
func (c *Cache) positionalScore(e *entry) float64 {
	ags := c.avgGetSize()
	if ags <= 0 {
		return 1
	}
	d := float64(c.store.AdjacentFree(e.region))
	s := math.Abs(ags-d) / ags
	if s > 1 {
		return 1
	}
	return s
}

// score combines the two factors per the configured scheme: R = R_P × R_T
// for the Full scheme; the ablation schemes use one factor only
// (Figs. 10–11). In cost-aware mode (DESIGN.md §15) the score is
// additionally weighted by the entry's refill cost, so at equal recency
// a cheap-to-refill (near-target) entry scores lower and loses the
// victim comparison to an expensive (far-target) one. The weight is a
// constant factor per (target, size), so the ablation orderings within
// one distance class are unchanged. r is the entry's slot record, the
// home of its recency.
func (c *Cache) score(r ref) float64 {
	var s float64
	switch c.params.Scheme {
	case SchemeTemporal:
		s = c.temporalScore(r.last)
	case SchemePositional:
		s = c.positionalScore(r.e)
	default:
		s = c.positionalScore(r.e) * c.temporalScore(r.last)
	}
	if c.costAware() {
		s *= c.evictWeight(r.e)
	}
	return s
}

// selectCapacityVictim implements the sampling procedure of §III-D: visit
// M consecutive index slots from a random start (wrapping at most once),
// extending the scan until at least one evictable entry has been seen —
// v_i = max(M, k_i) — and return the lowest-scoring CACHED entry among
// the visited ones. PENDING entries are not evictable: their payload is
// still in flight and same-epoch waiters may reference them. Returns nil
// if the index holds no evictable entry.
func (c *Cache) selectCapacityVictim() (*entry, simtime.Duration) {
	var (
		victim   *entry
		visited  int
		nonEmpty int
	)
	best := math.Inf(1)
	c.idx.Scan(c.idx.RandomSlot(), func(_ int, _ cuckoo.Key, r ref, used bool) bool {
		visited++
		if used && r.cached() {
			nonEmpty++
			if s := c.score(r); s < best {
				best = s
				victim = r.e
			}
		}
		// Stop once the sample size is reached AND at least
		// one candidate was seen; otherwise keep scanning
		// (the paper's v_i = max(M, k_i)).
		return visited < c.params.SampleSize || nonEmpty == 0
	})
	d := c.charge(simtime.Duration(visited)*CostPerScanSlot + simtime.Duration(nonEmpty)*CostPerScoredEntry)
	c.stats.EvictionScans++
	c.stats.VisitedSlots += int64(visited)
	c.stats.NonEmptyVisited += int64(nonEmpty)
	c.stats.EvictTime += d
	return victim, d
}

// scoredVictim is one capacity-eviction candidate of a batch's victim
// reservoir, carrying the score it had when the reservoir was filled.
type scoredVictim struct {
	e *entry
	s float64
}

// fillVictimPool runs ONE sampling scan sized for a whole batch: visit
// at least M consecutive slots from a random start, extending the scan
// until `want` evictable entries have been seen (or the table wraps),
// and keep every CACHED occupant sorted by descending score — so
// nextBatchVictim pops the lowest-scoring candidates first. The scan is
// charged once, amortizing the per-eviction sampling of §III-D across
// the batch's capacity evictions.
func (c *Cache) fillVictimPool(want int) {
	c.bvict = c.bvict[:0]
	if want <= 0 {
		return
	}
	var visited, nonEmpty int
	c.idx.Scan(c.idx.RandomSlot(), func(_ int, _ cuckoo.Key, r ref, used bool) bool {
		visited++
		if used && r.cached() {
			nonEmpty++
			c.bvict = append(c.bvict, scoredVictim{e: r.e, s: c.score(r)})
		}
		return visited < c.params.SampleSize || nonEmpty < want
	})
	slices.SortFunc(c.bvict, func(a, b scoredVictim) int {
		switch {
		case a.s > b.s:
			return -1
		case a.s < b.s:
			return 1
		default:
			return 0
		}
	})
	d := c.charge(simtime.Duration(visited)*CostPerScanSlot + simtime.Duration(nonEmpty)*CostPerScoredEntry)
	c.stats.EvictionScans++
	c.stats.VisitedSlots += int64(visited)
	c.stats.NonEmptyVisited += int64(nonEmpty)
	c.stats.EvictTime += d
}

// nextBatchVictim pops the lowest-scoring candidate that is still
// evictable off the reservoir; nil once it is drained (the caller then
// falls back to a fresh per-miss scan).
func (c *Cache) nextBatchVictim() *entry {
	for n := len(c.bvict); n > 0; n = len(c.bvict) {
		v := c.bvict[n-1].e
		c.bvict[n-1].e = nil
		c.bvict = c.bvict[:n-1]
		if v.state == stateCached {
			return v
		}
	}
	return nil
}

// dropVictimPool clears the reservoir at the end of a batch, dropping
// its entry references while keeping capacity.
func (c *Cache) dropVictimPool() {
	for i := range c.bvict {
		c.bvict[i].e = nil
	}
	c.bvict = c.bvict[:0]
}

// selectConflictVictim picks the victim of a conflicting access among the
// candidate slots of the key a failed Cuckoo insertion search left
// homeless (§III-C1): the lowest-scoring CACHED occupant. Returns -1 if
// none of the candidates is evictable (all PENDING).
func (c *Cache) selectConflictVictim(candidates [cuckoo.NumHashes]int) (int, simtime.Duration) {
	victimSlot := -1
	best := math.Inf(1)
	for _, s := range candidates {
		_, r, used := c.idx.At(s)
		if !used || !r.cached() {
			continue
		}
		if sc := c.score(r); sc < best {
			best = sc
			victimSlot = s
		}
	}
	d := c.charge(cuckoo.NumHashes * CostPerScoredEntry)
	c.stats.EvictTime += d
	return victimSlot, d
}
