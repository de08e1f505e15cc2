package experiments

import (
	"testing"

	"clampi/internal/rma"
	"clampi/internal/schedtest"
)

// TestMicroDistance checks the by_distance breakdown: every class
// reported, near classes bypassing admission (re-gets stay misses),
// far classes cached (half the gets hit on the re-pass), and per-op
// virtual cost monotonically non-decreasing with distance among the
// miss-priced classes.
func TestMicroDistance(t *testing.T) {
	by, err := MicroDistance()
	if err != nil {
		t.Fatal(err)
	}
	if len(by) != rma.NumDistanceClasses {
		t.Fatalf("classes reported = %d, want %d (%v)", len(by), rma.NumDistanceClasses, by)
	}
	for _, name := range rma.DistanceClassNames {
		d, ok := by[name]
		if !ok {
			t.Fatalf("missing class %q", name)
		}
		if d.Gets != 64 {
			t.Errorf("%s: gets = %d, want 64", name, d.Gets)
		}
	}
	// Same-process and same-socket 256 B fills are below the cheap-fill
	// threshold: nothing admitted, every get a miss.
	for _, near := range []string{"same_process", "same_socket"} {
		if by[near].Hits != 0 || by[near].Misses != 64 {
			t.Errorf("%s: hits/misses = %d/%d, want 0/64 (admission bypass)", near, by[near].Hits, by[near].Misses)
		}
	}
	// Far classes cache the first pass and hit on the second.
	for _, far := range []string{"same_node", "other_node", "other_group"} {
		if by[far].Hits != 32 || by[far].Misses != 32 {
			t.Errorf("%s: hits/misses = %d/%d, want 32/32 (cached re-pass)", far, by[far].Hits, by[far].Misses)
		}
	}
	// Distance ordering holds for per-op virtual cost across the
	// miss-priced near classes, and the farthest cached class still
	// costs more per op than the nearest one.
	if !(by["same_process"].VirtualNsPerOp < by["same_socket"].VirtualNsPerOp) {
		t.Errorf("same_process %.0f !< same_socket %.0f vns/op",
			by["same_process"].VirtualNsPerOp, by["same_socket"].VirtualNsPerOp)
	}
	if !(by["same_node"].VirtualNsPerOp < by["other_group"].VirtualNsPerOp) {
		t.Errorf("same_node %.0f !< other_group %.0f vns/op",
			by["same_node"].VirtualNsPerOp, by["other_group"].VirtualNsPerOp)
	}
}

// TestLCCLocalityCompare pins the cost-aware figure (clampi lcc -fig
// locality, DESIGN.md §15.2) on its capacity-bound instance: kernel
// results bit-identical with and without cost awareness, both rows equal
// to their goldens, and — since virtual time is a function of the
// program — every field identical over repetitions and on both
// goroutine schedules (see schedtest).
func TestLCCLocalityCompare(t *testing.T) {
	wantBlind := LCCLocalityRow{
		System: "locality-blind", SumLCC: 614.6210620178122, Wedges: 3078064,
		TotalVirtualNs: 436459653, CommVirtualNs: 368872966,
		RemoteBytes: 81641496, HitRate: 0.28983719040597067, Evictions: 31618,
	}
	wantAware := LCCLocalityRow{
		System: "cost-aware", SumLCC: wantBlind.SumLCC, Wedges: wantBlind.Wedges,
		TotalVirtualNs: 289955561, CommVirtualNs: 222368874,
		RemoteBytes: 81641496, HitRate: 0.2889243331627996, Evictions: 23404, CheapSkips: 16996,
	}
	schedtest.Do(func(sched schedtest.Schedule) {
		for rep := 0; rep < 3; rep++ {
			blind, aware, _, err := LCCLocalityCompare(14, 8, 8, 4, 512, 1<<12, 1<<18)
			if err != nil {
				t.Fatalf("%s: %v", sched.Name, err)
			}
			if blind != wantBlind {
				t.Errorf("%s rep %d: blind row\n got %+v\nwant %+v", sched.Name, rep, blind, wantBlind)
			}
			if aware != wantAware {
				t.Errorf("%s rep %d: aware row\n got %+v\nwant %+v", sched.Name, rep, aware, wantAware)
			}
		}
	})
}
