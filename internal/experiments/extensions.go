package experiments

// Extension experiments beyond the paper's figures: a third cached
// workload (pull-BFS) and the persistent-window deployment of the
// Barnes-Hut simulation.

import (
	"fmt"
	"sync"

	"clampi/internal/bfs"
	"clampi/internal/core"
	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/lsb"
	"clampi/internal/mpi"
	"clampi/internal/nbody"
	"clampi/internal/simtime"
)

// BFSRow is one (system) BFS measurement.
type BFSRow struct {
	System     string
	Time       simtime.Duration
	RemoteGets int64
	HitRate    float64
}

// ExtensionBFS runs the pull-BFS workload with and without caching.
func ExtensionBFS(scale, ef, p, source int) ([]BFSRow, *lsb.Table, error) {
	return extensionBFS(BuildLCCGraph(scale, ef, 31), p, source)
}

func extensionBFS(g *graph.CSR, p, source int) ([]BFSRow, *lsb.Table, error) {
	var rows []BFSRow
	tbl := lsb.NewTable(fmt.Sprintf("Extension: pull-BFS (N=%d, P=%d)", g.N, p),
		"system", "total time", "remote gets", "hit rate")
	for _, cached := range []bool{false, true} {
		var mu sync.Mutex
		var total simtime.Duration
		var remote int64
		fleet := newClampiFleet(p, core.Params{Mode: core.AlwaysCache, IndexSlots: 1 << 14, StorageBytes: 1 << 20, Seed: 9})
		err := mpi.Run(p, mpi.Config{}, func(r *mpi.Rank) error {
			d := graph.Distribute(g, p, r.ID())
			frontier := make([]byte, d.Hi-d.Lo)
			win := r.WinCreate(frontier, nil)
			defer win.Free()
			var gt getter.Getter
			var err error
			if cached {
				gt, err = fleet.factory(win)
			} else {
				gt = getter.NewRaw(win)
			}
			if err != nil {
				return err
			}
			res, err := bfs.Run(r, d, win, frontier, gt, bfs.Config{Source: source})
			if err != nil {
				return err
			}
			mu.Lock()
			total += res.Time
			remote += res.RemoteGets
			mu.Unlock()
			r.Barrier()
			return nil
		})
		if err != nil {
			return rows, tbl, err
		}
		name := "foMPI"
		hit := 0.0
		if cached {
			name = "CLaMPI"
			hit = fleet.totals().HitRate()
		}
		rows = append(rows, BFSRow{System: name, Time: total, RemoteGets: remote, HitRate: hit})
		tbl.AddRow(name, total, remote, fmt.Sprintf("%.3f", hit))
	}
	return rows, tbl, nil
}

// PersistentRow compares window-per-step against persistent-window BH.
type PersistentRow struct {
	Variant     string
	Step        int
	ForceTime   simtime.Duration
	Adjustments int64
}

// ExtensionPersistentWindow runs the adaptive Barnes-Hut with a
// deliberately undersized cache, per-step windows vs one persistent
// window: with persistence the tuner's adjustments carry across steps
// and later steps run faster.
func ExtensionPersistentWindow(n, p, steps int) ([]PersistentRow, *lsb.Table, error) {
	cfg := nbody.SimConfig{Bodies: n, Steps: steps, Theta: 0.5, Seed: 23}
	params := core.Params{
		Mode: core.AlwaysCache, IndexSlots: 64, StorageBytes: 4 << 10,
		Adaptive: true, TuneInterval: 512, Seed: 2,
	}
	var rows []PersistentRow
	tbl := lsb.NewTable(fmt.Sprintf("Extension: persistent window (N=%d, P=%d)", n, p),
		"variant", "step", "force time", "adjustments")
	for _, persistent := range []bool{false, true} {
		fleet := newClampiFleet(p, params)
		var perStepMu sync.Mutex
		perStep := make([]simtime.Duration, steps)
		err := mpi.Run(p, mpi.Config{}, func(r *mpi.Rank) error {
			var stats []nbody.StepStats
			var err error
			if persistent {
				stats, err = nbody.RunSimPersistent(r, cfg, fleet.factory)
			} else {
				stats, err = nbody.RunSim(r, cfg, fleet.factory)
			}
			if err != nil {
				return err
			}
			perStepMu.Lock()
			for i, s := range stats {
				perStep[i] += s.ForceTime
			}
			perStepMu.Unlock()
			return nil
		})
		if err != nil {
			return rows, tbl, err
		}
		name := "window-per-step"
		if persistent {
			name = "persistent"
		}
		adj := fleet.totals().Adjustments
		for i, ft := range perStep {
			rows = append(rows, PersistentRow{Variant: name, Step: i, ForceTime: ft, Adjustments: adj})
			tbl.AddRow(name, i, ft, adj)
		}
	}
	return rows, tbl, nil
}
