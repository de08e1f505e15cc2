package core

import (
	"fmt"

	"clampi/internal/cuckoo"
	"clampi/internal/rma"
	"clampi/internal/storage"
)

// CheckIntegrity validates the cross-structure invariants between the
// index and the storage manager. It is O(|I_w| + entries) and intended
// for tests and debugging assertions:
//
//   - every indexed entry is CACHED or PENDING (never evicted),
//   - each slot's record agrees with its entry: off is the region's
//     offset, and hit is the payload exactly when the entry is CACHED and
//     serves nothing (-1) while it is PENDING,
//   - entry payloads fit their storage regions, and regions are
//     allocated (not free),
//   - no two entries share a region,
//   - every PENDING entry is queued for epoch-closure processing,
//   - the count of CACHED entries the capacity scan relies on is exact,
//   - once the ordered view exists (range.go) it holds exactly the
//     indexed entries, and no payload exceeds its maxPayload,
//   - the storage manager's own invariants hold, and so do the index's
//     (cuckoo.Table.Check: tags, candidate records and counts).
func (c *Cache) CheckIntegrity() error {
	if err := c.store.CheckInvariants(); err != nil {
		return err
	}
	if err := c.idx.Check(); err != nil {
		return err
	}
	pendingSet := make(map[*entry]bool, len(c.pending))
	for _, e := range c.pending {
		pendingSet[e] = true
	}
	regions := make(map[*storage.Region]cuckoo.Key)
	indexed, cached := 0, 0
	var err error
	c.idx.Walk(func(k cuckoo.Key, r ref) bool {
		indexed++
		e := r.e
		if e == nil {
			err = fmt.Errorf("core: nil entry indexed at %v", k)
			return false
		}
		if e.key != k {
			err = fmt.Errorf("core: entry key %v indexed under %v", e.key, k)
			return false
		}
		switch e.state {
		case stateEvicted:
			err = fmt.Errorf("core: evicted entry %v still indexed", k)
			return false
		case statePending:
			if !pendingSet[e] {
				err = fmt.Errorf("core: PENDING entry %v not queued for epoch closure", k)
				return false
			}
			if e.src == nil {
				err = fmt.Errorf("core: PENDING entry %v has no source buffer", k)
				return false
			}
		case stateCached:
			cached++
			if len(e.waiters) != 0 {
				err = fmt.Errorf("core: CACHED entry %v has %d waiters", k, len(e.waiters))
				return false
			}
			if c.verify && e.sum != 0 && rma.ChecksumBytes(c.store.Bytes(e.region, e.payload)) != e.sum {
				err = fmt.Errorf("core: CACHED entry %v fails its payload checksum", k)
				return false
			}
		}
		if e.region == nil || e.region.Free() {
			err = fmt.Errorf("core: entry %v has free/nil region", k)
			return false
		}
		if e.payload > e.region.Size() {
			err = fmt.Errorf("core: entry %v payload %d exceeds region %v", k, e.payload, e.region)
			return false
		}
		if int(r.off) != e.region.Off() {
			err = fmt.Errorf("core: entry %v slot offset %d, region %v", k, r.off, e.region)
			return false
		}
		servable := -1
		if e.state == stateCached {
			servable = e.payload
		}
		if int(r.hit) != servable {
			err = fmt.Errorf("core: entry %v slot serves %d bytes, want %d", k, r.hit, servable)
			return false
		}
		if c.view != nil {
			if cur, ok := c.view.tree.Get(viewKey(k)); !ok || cur != e {
				err = fmt.Errorf("core: indexed entry %v missing from the ordered view", k)
				return false
			}
			if e.payload > c.view.maxPayload {
				err = fmt.Errorf("core: entry %v payload %d exceeds maxPayload %d", k, e.payload, c.view.maxPayload)
				return false
			}
		}
		if prev, dup := regions[e.region]; dup {
			err = fmt.Errorf("core: entries %v and %v share region %v", prev, k, e.region)
			return false
		}
		regions[e.region] = k
		return true
	})
	if err != nil {
		return err
	}
	if indexed != c.idx.Len() {
		return fmt.Errorf("core: walked %d entries, index reports %d", indexed, c.idx.Len())
	}
	if cached != c.evictable {
		return fmt.Errorf("core: %d CACHED entries indexed, count says %d", cached, c.evictable)
	}
	if c.view != nil && c.view.tree.Len() != indexed {
		return fmt.Errorf("core: ordered view holds %d entries, index %d", c.view.tree.Len(), indexed)
	}
	// Entries not reachable through the index must not hold storage:
	// every allocated region belongs to an indexed entry (a new entry
	// that finds no index slot is freed at once by dropHomeless), so
	// counts must match exactly.
	if c.store.Entries() != len(regions) {
		return fmt.Errorf("core: storage holds %d regions, index references %d", c.store.Entries(), len(regions))
	}
	return nil
}
