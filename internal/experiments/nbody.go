package experiments

import (
	"fmt"
	"sync"

	"clampi/internal/blockcache"
	"clampi/internal/core"
	"clampi/internal/getter"
	"clampi/internal/lsb"
	"clampi/internal/mpi"
	"clampi/internal/nbody"
	"clampi/internal/rma"
	"clampi/internal/simtime"
	"clampi/internal/trace"
)

// clampiFleet builds one CLaMPI cache per rank and keeps the handles so
// aggregate statistics can be read after a run.
type clampiFleet struct {
	params core.Params
	caches []*core.Cache // indexed by rank; each rank writes its own slot
}

func newClampiFleet(p int, params core.Params) *clampiFleet {
	return &clampiFleet{params: params, caches: make([]*core.Cache, p)}
}

func (f *clampiFleet) factory(win rma.Window) (getter.Getter, error) {
	params := f.params
	if params.Observer == nil {
		params.Observer = newObserver()
	}
	c, err := core.New(win, params)
	if err != nil {
		return nil, err
	}
	f.caches[win.Endpoint().ID()] = c
	return getter.NewCached(c), nil
}

// totals sums the per-rank cache statistics.
func (f *clampiFleet) totals() core.Stats {
	var t core.Stats
	for _, c := range f.caches {
		if c != nil {
			t = t.Add(c.Stats())
		}
	}
	return t
}

// nbodyRun executes one Barnes-Hut configuration and returns the summed
// force time, bodies processed, and (for CLaMPI systems) cache stats.
func nbodyRun(n, p int, cfg nbody.SimConfig, mk nbody.GetterFactory) (simtime.Duration, int, error) {
	var mu sync.Mutex
	var force simtime.Duration
	var bodies int
	err := mpi.Run(p, mpi.Config{}, func(r *mpi.Rank) error {
		stats, err := nbody.RunSim(r, cfg, mk)
		if err != nil {
			return err
		}
		// Ranks run concurrently; serialize the shared accumulation.
		mu.Lock()
		defer mu.Unlock()
		for _, s := range stats {
			force += s.ForceTime
			bodies += s.Bodies
		}
		return nil
	})
	return force, bodies, err
}

// Fig2NBodyReuse reproduces Fig. 2: the get-repetition histogram of one
// Barnes-Hut force phase. Paper parameters: P = 4 processes, N = 4000
// bodies.
func Fig2NBodyReuse(n, p int) (*trace.Recorder, *lsb.Table, error) {
	recs := make([]*trace.Recorder, p)
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}
	err := mpi.Run(p, mpi.Config{}, func(r *mpi.Rank) error {
		cfg := nbody.SimConfig{Bodies: n, Steps: 1, Theta: 0.5, Seed: 2017, Recorder: recs[r.ID()]}
		_, err := nbody.RunSim(r, cfg, func(win rma.Window) (getter.Getter, error) {
			return getter.NewRaw(win), nil
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	merged := trace.NewRecorder()
	for _, rec := range recs {
		merged.Merge(rec)
	}
	tbl := lsb.NewTable(fmt.Sprintf("Fig 2: N-body get repetitions (N=%d, P=%d)", n, p),
		"repetitions", "distinct gets")
	for _, b := range merged.RepetitionHistogram() {
		tbl.AddRow(fmt.Sprintf("%d-%d", b.LoReps, b.HiReps), b.Gets)
	}
	tbl.AddRow("max", merged.MaxRepetition())
	tbl.AddRow("reuse factor", fmt.Sprintf("%.1f", merged.ReuseFactor()))
	return merged, tbl, nil
}

// Fig12Row is one (system, |S_w|) force-time measurement.
type Fig12Row struct {
	System       string
	StorageBytes int
	TimePerBody  simtime.Duration
	Adjustments  int64
}

// Fig12NBodyParams reproduces Fig. 12: Barnes-Hut force computation time
// per body as a function of the cache memory size, for CLaMPI fixed,
// CLaMPI adaptive, the native block cache, and foMPI. Paper parameters:
// N = 20K bodies, P = 16; |S_w| swept 1–4 MB.
func Fig12NBodyParams(n, p, indexSlots int, storageSizes []int) ([]Fig12Row, *lsb.Table, error) {
	cfg := nbody.SimConfig{Bodies: n, Steps: 1, Theta: 0.5, Seed: 7}
	var rows []Fig12Row
	tbl := lsb.NewTable(fmt.Sprintf("Fig 12: BH force time per body (N=%d, P=%d)", n, p),
		"|S_w|(B)", "system", "time/body", "adjustments")

	// foMPI reference (independent of |S_w|).
	force, bodies, err := nbodyRun(n, p, cfg, func(win rma.Window) (getter.Getter, error) {
		return getter.NewRaw(win), nil
	})
	if err != nil {
		return rows, tbl, err
	}
	fompi := force / simtime.Duration(bodies)
	rows = append(rows, Fig12Row{System: "foMPI", TimePerBody: fompi})
	tbl.AddRow("-", "foMPI", fompi, 0)

	for _, sw := range storageSizes {
		// Native block cache with the same memory budget.
		force, bodies, err := nbodyRun(n, p, cfg, func(win rma.Window) (getter.Getter, error) {
			return blockcache.New(win, sw, 256)
		})
		if err != nil {
			return rows, tbl, err
		}
		rows = append(rows, Fig12Row{System: "native", StorageBytes: sw, TimePerBody: force / simtime.Duration(bodies)})
		tbl.AddRow(sw, "native", force/simtime.Duration(bodies), 0)

		for _, adaptive := range []bool{false, true} {
			params := core.Params{
				Mode: core.AlwaysCache, IndexSlots: indexSlots, StorageBytes: sw,
				Adaptive: adaptive, TuneInterval: 512, Seed: 3,
			}
			fleet := newClampiFleet(p, params)
			force, bodies, err := nbodyRun(n, p, cfg, fleet.factory)
			if err != nil {
				return rows, tbl, err
			}
			name := "CLaMPI-fixed"
			if adaptive {
				name = "CLaMPI-adaptive"
			}
			row := Fig12Row{
				System:       name,
				StorageBytes: sw,
				TimePerBody:  force / simtime.Duration(bodies),
				Adjustments:  fleet.totals().Adjustments,
			}
			rows = append(rows, row)
			tbl.AddRow(sw, name, row.TimePerBody, row.Adjustments)
		}
	}
	return rows, tbl, nil
}

// Fig13Row is the access-type breakdown for one index size.
type Fig13Row struct {
	IndexSlots   int
	HitFrac      float64
	DirectFrac   float64
	ConflictFrac float64
	CapFailFrac  float64
}

// Fig13NBodyStats reproduces Fig. 13: the access-type statistics of the
// Barnes-Hut force phase per hash table size, with |S_w| fixed. Paper
// parameters: |S_w| = 1 MB, N = 20K, P = 16.
func Fig13NBodyStats(n, p, storageBytes int, indexSizes []int) ([]Fig13Row, *lsb.Table, error) {
	cfg := nbody.SimConfig{Bodies: n, Steps: 1, Theta: 0.5, Seed: 7}
	var rows []Fig13Row
	tbl := lsb.NewTable(fmt.Sprintf("Fig 13: BH access stats (|S_w|=%dB, N=%d, P=%d)", storageBytes, n, p),
		"|I_w|", "hit", "direct", "conflicting", "capacity+failed")
	for _, slots := range indexSizes {
		fleet := newClampiFleet(p, core.Params{
			Mode: core.AlwaysCache, IndexSlots: slots, StorageBytes: storageBytes, Seed: 3,
		})
		if _, _, err := nbodyRun(n, p, cfg, fleet.factory); err != nil {
			return rows, tbl, err
		}
		s := fleet.totals()
		row := Fig13Row{
			IndexSlots:   slots,
			HitFrac:      s.HitRate(),
			DirectFrac:   s.Rate(core.AccessDirect),
			ConflictFrac: s.Rate(core.AccessConflicting),
			CapFailFrac:  s.Rate(core.AccessCapacity) + s.Rate(core.AccessFailing),
		}
		rows = append(rows, row)
		tbl.AddRow(slots,
			fmt.Sprintf("%.3f", row.HitFrac),
			fmt.Sprintf("%.3f", row.DirectFrac),
			fmt.Sprintf("%.3f", row.ConflictFrac),
			fmt.Sprintf("%.3f", row.CapFailFrac))
	}
	return rows, tbl, nil
}

// Fig14Row is one (system, P) weak-scaling measurement.
type Fig14Row struct {
	System      string
	P           int
	TimePerBody simtime.Duration
}

// Fig14NBodyWeak reproduces Fig. 14: Barnes-Hut weak scaling — force time
// per body as the number of PEs grows with constant bodies per PE. Paper
// parameters: 1.5K bodies/PE, P = 16..128, |S_w| = 2 MB, |I_w| = 30K.
func Fig14NBodyWeak(bodiesPerPE int, ps []int, indexSlots, storageBytes int) ([]Fig14Row, *lsb.Table, error) {
	var rows []Fig14Row
	tbl := lsb.NewTable(fmt.Sprintf("Fig 14: BH weak scaling (%d bodies/PE)", bodiesPerPE),
		"P", "system", "time/body")
	for _, p := range ps {
		n := bodiesPerPE * p
		cfg := nbody.SimConfig{Bodies: n, Steps: 1, Theta: 0.5, Seed: 7}

		systems := []struct {
			name string
			mk   nbody.GetterFactory
		}{
			{"foMPI", func(win rma.Window) (getter.Getter, error) { return getter.NewRaw(win), nil }},
			{"native", func(win rma.Window) (getter.Getter, error) { return blockcache.New(win, storageBytes, 256) }},
			{"CLaMPI-fixed", newClampiFleet(p, core.Params{
				Mode: core.AlwaysCache, IndexSlots: indexSlots, StorageBytes: storageBytes, Seed: 3}).factory},
			{"CLaMPI-adaptive", newClampiFleet(p, core.Params{
				Mode: core.AlwaysCache, IndexSlots: indexSlots, StorageBytes: storageBytes,
				Adaptive: true, TuneInterval: 512, Seed: 3}).factory},
		}
		for _, sys := range systems {
			force, bodies, err := nbodyRun(n, p, cfg, sys.mk)
			if err != nil {
				return rows, tbl, err
			}
			row := Fig14Row{System: sys.name, P: p, TimePerBody: force / simtime.Duration(bodies)}
			rows = append(rows, row)
			tbl.AddRow(p, sys.name, row.TimePerBody)
		}
	}
	return rows, tbl, nil
}
