// Integration tests for the observability subsystem through the public
// API: one Collector installed via WithObserver, shared by every rank,
// exercised under both goroutine schedules (see internal/schedtest).
// Under -race the runs double as a data-race check on the registry and
// the event ring, since the ranks run concurrently.
package clampi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"clampi"
	"clampi/internal/schedtest"
)

// observedWorkload runs a deterministic multi-rank caching workload with
// a single shared Collector and returns its registry and ring. Every
// rank issues the same get sequence (reuse plus a conflicting tail), so
// the event counts are independent of rank interleaving.
func observedWorkload(t *testing.T) (*clampi.Registry, *clampi.Ring) {
	t.Helper()
	reg := clampi.NewRegistry()
	ring := clampi.NewRing(1 << 15)
	col := clampi.NewCollector(reg, ring)
	err := clampi.Run(4, clampi.RunConfig{}, func(r *clampi.Rank) error {
		w, _, err := clampi.Allocate(r, 64<<10, nil,
			clampi.WithMode(clampi.AlwaysCache),
			clampi.WithIndexSlots(64),
			clampi.WithStorageBytes(32<<10),
			clampi.WithSeed(7),
			clampi.WithObserver(col))
		if err != nil {
			return err
		}
		defer w.Free()
		if err := w.LockAll(); err != nil {
			return err
		}
		buf := make([]byte, 512)
		peer := (r.ID() + 1) % r.Size()
		for round := 0; round < 3; round++ {
			// Hot set: the same 16 blocks every round (hits after the
			// first round); then a sweep wide enough to force capacity
			// and conflict evictions in the small cache.
			for blk := 0; blk < 16; blk++ {
				if err := w.GetBytes(buf, peer, blk*512); err != nil {
					return err
				}
			}
			for blk := 0; blk < 96; blk++ {
				if err := w.GetBytes(buf, peer, blk*512); err != nil {
					return err
				}
			}
			if err := w.FlushAll(); err != nil {
				return err
			}
		}
		w.Invalidate()
		if err := w.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return reg, ring
}

// counterTotals extracts every counter series from the registry's JSON
// export as a "name{labels}" -> value map.
func counterTotals(t *testing.T, reg *clampi.Registry) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := clampi.WriteJSON(&buf, reg); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		Counters []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  int64             `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal export: %v", err)
	}
	out := make(map[string]int64, len(doc.Counters))
	for _, c := range doc.Counters {
		keys := make([]string, 0, len(c.Labels))
		for k := range c.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		id := c.Name
		for _, k := range keys {
			id += fmt.Sprintf(",%s=%s", k, c.Labels[k])
		}
		out[id] = c.Value
	}
	return out
}

// TestDualModeCountersAgree runs the identical workload once per
// goroutine schedule and asserts the two registries hold identical
// counter totals: the observability layer must count events, not
// scheduling artifacts. Under -race this also verifies the shared
// collector is race-free with concurrent ranks.
func TestDualModeCountersAgree(t *testing.T) {
	var regs []*clampi.Registry
	var rings []*clampi.Ring
	schedtest.Do(func(schedtest.Schedule) {
		reg, ring := observedWorkload(t)
		regs, rings = append(regs, reg), append(rings, ring)
	})

	one := counterTotals(t, regs[0])
	all := counterTotals(t, regs[1])
	if len(one) == 0 {
		t.Fatal("one-P run recorded no counters")
	}
	if one[`clampi_accesses_total,type=hitting`] == 0 {
		t.Error("workload produced no cache hits; reuse pattern broken")
	}
	if one[`clampi_evictions_total,kind=capacity`]+one[`clampi_evictions_total,kind=conflict`] == 0 {
		t.Error("workload produced no evictions; pressure pattern broken")
	}
	for name, v := range one {
		if got := all[name]; got != v {
			t.Errorf("counter %s: %d on one P, %d on every P", name, v, got)
		}
	}
	for name := range all {
		if _, ok := one[name]; !ok {
			t.Errorf("counter %s present only in the every-P run", name)
		}
	}

	if rings[0].Total() != rings[1].Total() {
		t.Errorf("event totals differ: %d on one P, %d on every P", rings[0].Total(), rings[1].Total())
	}
	if rings[0].Total() == 0 {
		t.Error("no events traced")
	}

	// The ring must retain a dense, ordered window of the event stream
	// even after concurrent appends.
	events := rings[1].Snapshot()
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("ring sequence gap at %d: %d -> %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

// TestObserverSeesAllStats cross-checks the observer-derived counters
// against the caches' own Stats: a shared collector over every rank must
// agree with the sum of the per-window counters.
func TestObserverSeesAllStats(t *testing.T) {
	reg := clampi.NewRegistry()
	col := clampi.NewCollector(reg, clampi.NewRing(0))
	perRank := make([]clampi.Stats, 2)
	err := clampi.Run(2, clampi.RunConfig{}, func(r *clampi.Rank) error {
		w, _, err := clampi.Allocate(r, 32<<10, nil,
			clampi.WithMode(clampi.AlwaysCache),
			clampi.WithObserver(col))
		if err != nil {
			return err
		}
		defer w.Free()
		if err := w.LockAll(); err != nil {
			return err
		}
		buf := make([]byte, 256)
		for i := 0; i < 40; i++ {
			if err := w.GetBytes(buf, (r.ID()+1)%r.Size(), (i%10)*256); err != nil {
				return err
			}
		}
		if err := w.FlushAll(); err != nil {
			return err
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		r.Barrier()
		perRank[r.ID()] = w.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := perRank[0].Add(perRank[1])
	got := counterTotals(t, reg)
	want := map[string]int64{
		`clampi_accesses_total,type=hitting`:     total.Hits,
		`clampi_accesses_total,type=direct`:      total.Direct,
		`clampi_accesses_total,type=conflicting`: total.Conflicting,
		`clampi_accesses_total,type=capacity`:    total.Capacity,
		`clampi_accesses_total,type=failing`:     total.Failing,
		`clampi_partial_hits_total`:              total.PartialHits,
		`clampi_evictions_total,kind=capacity` +
			`|clampi_evictions_total,kind=conflict`: total.Evictions,
		`clampi_adjustments_total`: total.Adjustments,
		`clampi_get_bytes_total`:   total.BytesFromCache + total.BytesFromNetwork,
	}
	for name, v := range want {
		var sum int64
		for _, part := range strings.Split(name, "|") {
			sum += got[part]
		}
		if sum != v {
			t.Errorf("%s: observer saw %d, Stats sum %d", name, sum, v)
		}
	}
	if total.Hits == 0 {
		t.Error("workload produced no hits")
	}
}
