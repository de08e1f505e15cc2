package experiments

import (
	"testing"

	"clampi/internal/fault"
	"clampi/internal/schedtest"
)

// TestChaosBenchBothModes is the central assertion of DESIGN.md §11:
// under every canned fault scenario, on both goroutine schedules (see
// schedtest), the three applications produce results bit-identical to
// their fault-free runs, and a same-seed rerun injects the identical
// fault sequence.
func TestChaosBenchBothModes(t *testing.T) {
	schedtest.Do(func(sched schedtest.Schedule) {
		rows, _, err := ChaosBench(4, 42, nil, nil)
		if err != nil {
			t.Fatalf("%s: ChaosBench: %v", sched.Name, err)
		}
		if len(rows) != len(ChaosApps())*len(fault.Canned()) {
			t.Fatalf("%s: %d rows, want %d", sched.Name, len(rows), len(ChaosApps())*len(fault.Canned()))
		}
		injected := false
		for _, row := range rows {
			if !row.Match {
				t.Errorf("%s: %s under %q diverged from the fault-free run (faults: %v)",
					sched.Name, row.App, row.Scenario, row.Faults)
			}
			if !row.Replay {
				t.Errorf("%s: %s under %q: same-seed replay injected a different fault sequence",
					sched.Name, row.App, row.Scenario)
			}
			if row.Faults.Total() > 0 {
				injected = true
			}
			if row.Faults.Ops > 0 && row.Stats.Gets == 0 {
				t.Errorf("%s: %s under %q saw injector ops but no cache gets", sched.Name, row.App, row.Scenario)
			}
		}
		if !injected {
			t.Errorf("%s: no scenario injected any fault — chaos run vacuous", sched.Name)
		}
	})
}

// TestChaosScenarioCoverage asserts each canned scenario exercises the
// resilience machinery it is named for (LCC).
func TestChaosScenarioCoverage(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		check    func(ChaosRow) bool
		what     string
	}{
		{"drop", func(r ChaosRow) bool { return r.Faults.Drops > 0 && r.Stats.Retries > 0 }, "drops retried"},
		{"timeout", func(r ChaosRow) bool { return r.Faults.Timeouts > 0 && r.Stats.Timeouts > 0 }, "timeouts counted"},
		{"corrupt", func(r ChaosRow) bool { return r.Faults.Corrupts > 0 && r.Stats.CorruptFills > 0 }, "corruptions detected"},
		{"outage", func(r ChaosRow) bool { return r.Faults.Outages > 0 && r.Stats.BreakerOpens > 0 }, "outage opened breaker"},
	} {
		sc, ok := fault.ByName(tc.scenario)
		if !ok {
			t.Fatalf("canned scenario %q missing", tc.scenario)
		}
		rows, _, err := ChaosBench(4, 42, []string{"lcc"}, []fault.Scenario{sc})
		if err != nil {
			t.Fatalf("%s: %v", tc.scenario, err)
		}
		row := rows[0]
		if !row.OK() {
			t.Errorf("%s: match=%v replay=%v", tc.scenario, row.Match, row.Replay)
		}
		if !tc.check(row) {
			t.Errorf("%s: expected %s; faults=%v stats: retries=%d timeouts=%d corrupt=%d breaker=%d",
				tc.scenario, tc.what, row.Faults,
				row.Stats.Retries, row.Stats.Timeouts, row.Stats.CorruptFills,
				row.Stats.BreakerOpens)
		}
	}
}
