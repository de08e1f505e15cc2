package experiments

// Schedule-independence coverage: the full LCC and Barnes-Hut workloads,
// run once under each goroutine schedule (see schedtest), must compute
// identical per-rank results. The ranks run concurrently, but with
// modelled (deterministic) costs the virtual clocks do not depend on the
// schedule either, so the comparison is exact — including times, cache
// hit counts and remote-get counts.

import (
	"testing"

	"clampi/internal/core"
	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/lcc"
	"clampi/internal/mpi"
	"clampi/internal/nbody"
	"clampi/internal/rma"
	"clampi/internal/schedtest"
)

const modesRanks = 8

// lccPerRank runs the distributed LCC kernel and returns each rank's
// Result (indexed by rank id — a per-rank slot, so no locking needed).
func lccPerRank(t *testing.T, g *graph.CSR, cached bool) []lcc.Result {
	t.Helper()
	results := make([]lcc.Result, modesRanks)
	err := mpi.Run(modesRanks, mpi.Config{}, func(r *mpi.Rank) error {
		d := graph.Distribute(g, modesRanks, r.ID())
		win := r.WinCreate(d.LocalAdjBytes(), nil)
		defer win.Free()
		var gt getter.Getter
		if cached {
			c, err := core.New(win, core.Params{
				Mode: core.AlwaysCache, IndexSlots: 1 << 12, StorageBytes: 1 << 18, Seed: 3,
			})
			if err != nil {
				return err
			}
			gt = getter.NewCached(c)
		} else {
			gt = getter.NewRaw(win)
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		res, err := lcc.Run(r.Clock(), d, gt, lcc.Config{MaxVertices: 64})
		if err != nil {
			return err
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		results[r.ID()] = res
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatalf("lcc cached=%v: %v", cached, err)
	}
	return results
}

// TestLCCModesIdentical runs the LCC kernel once per schedule and
// compares every rank's result.
func TestLCCModesIdentical(t *testing.T) {
	g := BuildLCCGraph(10, 8, 77)
	for _, cached := range []bool{false, true} {
		var runs [][]lcc.Result
		schedtest.Do(func(schedtest.Schedule) { runs = append(runs, lccPerRank(t, g, cached)) })
		for i := range runs[0] {
			if runs[0][i] != runs[1][i] {
				t.Errorf("cached=%v rank %d: %+v on one P, %+v on every P",
					cached, i, runs[0][i], runs[1][i])
			}
		}
	}
}

// nbodyPerRank runs the Barnes-Hut simulation and returns each rank's
// per-step statistics.
func nbodyPerRank(t *testing.T, cached bool) [][]nbody.StepStats {
	t.Helper()
	results := make([][]nbody.StepStats, modesRanks)
	cfg := nbody.SimConfig{Bodies: 640, Steps: 2, Theta: 0.5, Seed: 7}
	mk := func(win rma.Window) (getter.Getter, error) {
		if !cached {
			return getter.NewRaw(win), nil
		}
		c, err := core.New(win, core.Params{
			Mode: core.AlwaysCache, IndexSlots: 1 << 12, StorageBytes: 1 << 18, Seed: 3,
		})
		if err != nil {
			return nil, err
		}
		return getter.NewCached(c), nil
	}
	err := mpi.Run(modesRanks, mpi.Config{}, func(r *mpi.Rank) error {
		stats, err := nbody.RunSim(r, cfg, mk)
		if err != nil {
			return err
		}
		results[r.ID()] = stats
		return nil
	})
	if err != nil {
		t.Fatalf("nbody cached=%v: %v", cached, err)
	}
	return results
}

// TestNBodyModesIdentical runs the Barnes-Hut simulation once per
// schedule and compares every rank's per-step statistics.
func TestNBodyModesIdentical(t *testing.T) {
	for _, cached := range []bool{false, true} {
		var runs [][][]nbody.StepStats
		schedtest.Do(func(schedtest.Schedule) { runs = append(runs, nbodyPerRank(t, cached)) })
		one, all := runs[0], runs[1]
		for i := range one {
			if len(one[i]) != len(all[i]) {
				t.Fatalf("cached=%v rank %d: step counts %d != %d",
					cached, i, len(one[i]), len(all[i]))
			}
			for s := range one[i] {
				if one[i][s] != all[i][s] {
					t.Errorf("cached=%v rank %d step %d: %+v on one P, %+v on every P",
						cached, i, s, one[i][s], all[i][s])
				}
			}
		}
	}
}

// TestDriversRunInThroughputMode runs an aggregate figure driver once per
// schedule: the totals must be identical (every aggregated field is an
// integer or a virtual duration, so the order in which concurrent ranks
// add their shares cannot change the outcome).
func TestDriversRunInThroughputMode(t *testing.T) {
	g := BuildLCCGraph(9, 8, 11)
	var runs []lcc.Result
	schedtest.Do(func(schedtest.Schedule) {
		res, err := lccRun(g, 4, 32, func(win rma.Window) (getter.Getter, error) {
			return getter.NewRaw(win), nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	})
	one, all := runs[0], runs[1]
	if one.Vertices != all.Vertices || one.Wedges != all.Wedges ||
		one.Gets != all.Gets || one.RemoteGets != all.RemoteGets ||
		one.RemoteBytes != all.RemoteBytes || one.Time != all.Time ||
		one.CommTime != all.CommTime {
		t.Errorf("driver totals differ:\none P   %+v\nevery P %+v", one, all)
	}
}
