package experiments

import (
	"fmt"

	"clampi/internal/core"
	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/lcc"
	"clampi/internal/lsb"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/rmat"
	"clampi/internal/simtime"
	"clampi/internal/trace"
)

// BuildLCCGraph generates the R-MAT input of the LCC experiments.
func BuildLCCGraph(scale, edgeFactor int, seed int64) *graph.CSR {
	return graph.Build(1<<scale, rmat.Generate(scale, edgeFactor, rmat.Graph500, seed))
}

// lccRun executes one LCC configuration over p ranks and returns the
// aggregate result (times and counts summed over ranks).
func lccRun(g *graph.CSR, p int, maxVerts int, mk func(win rma.Window) (getter.Getter, error), recs []*trace.Recorder) (lcc.Result, error) {
	return lccRunCfg(g, p, mpi.Config{}, maxVerts, mk, recs)
}

// lccRunCfg is lccRun with an explicit machine shape — the locality
// experiments place ranks on nodes/groups instead of the default flat
// world.
func lccRunCfg(g *graph.CSR, p int, cfg mpi.Config, maxVerts int, mk func(win rma.Window) (getter.Getter, error), recs []*trace.Recorder) (lcc.Result, error) {
	// Per-rank slots, summed in rank order after the world ends: ranks
	// finish in virtual-time (or scheduler) order, and SumLCC is a float
	// — accumulating in completion order would make the aggregate's last
	// ulp depend on timing, not on the kernel's (per-rank bit-identical)
	// output.
	perRank := make([]lcc.Result, p)
	err := mpi.Run(p, cfg, func(r *mpi.Rank) error {
		d := graph.Distribute(g, p, r.ID())
		win := r.WinCreate(d.LocalAdjBytes(), nil)
		defer win.Free()
		gt, err := mk(win)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		cfg := lcc.Config{MaxVertices: maxVerts}
		if recs != nil {
			cfg.Recorder = recs[r.ID()]
		}
		res, err := lcc.Run(r.Clock(), d, gt, cfg)
		if err != nil {
			return err
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		perRank[r.ID()] = res
		r.Barrier()
		return nil
	})
	var total lcc.Result
	for _, res := range perRank {
		total.Vertices += res.Vertices
		total.SumLCC += res.SumLCC
		total.Wedges += res.Wedges
		total.Gets += res.Gets
		total.RemoteGets += res.RemoteGets
		total.RemoteBytes += res.RemoteBytes
		total.Time += res.Time
		total.CommTime += res.CommTime
	}
	return total, err
}

// Fig3LCCSizes reproduces Fig. 3: the distribution of the transfer sizes
// issued by an LCC instance. Paper parameters: R-MAT 2^16 vertices, 2^20
// edges, averaged over 32 ranks.
func Fig3LCCSizes(scale, edgeFactor, p, maxVerts int) (*trace.Recorder, *lsb.Table, error) {
	g := BuildLCCGraph(scale, edgeFactor, 1234)
	recs := make([]*trace.Recorder, p)
	for i := range recs {
		recs[i] = trace.NewRecorder()
	}
	if _, err := lccRun(g, p, maxVerts, func(win rma.Window) (getter.Getter, error) {
		return getter.NewRaw(win), nil
	}, recs); err != nil {
		return nil, nil, err
	}
	merged := trace.NewRecorder()
	for _, rec := range recs {
		merged.Merge(rec)
	}
	tbl := lsb.NewTable(fmt.Sprintf("Fig 3: LCC transfer sizes (R-MAT 2^%d vertices, EF=%d, P=%d)", scale, edgeFactor, p),
		"size bin", "gets")
	for _, b := range merged.SizeHistogram() {
		tbl.AddRow(fmt.Sprintf("%d-%dB", b.LoBytes, b.HiBytes), b.Gets)
	}
	tbl.AddRow("mean", fmt.Sprintf("%.0fB", merged.MeanSize()))
	tbl.AddRow("p82", fmt.Sprintf("%dB", merged.SizeQuantile(0.82)))
	return merged, tbl, nil
}

// LCCConfigRow is one (configuration) LCC timing.
type LCCConfigRow struct {
	System       string
	IndexSlots   int
	StorageBytes int
	TimePerVert  simtime.Duration
	HitRate      float64
	Adjustments  int64
}

// Fig15LCCParams reproduces Fig. 15: LCC vertex processing time for fixed
// CLaMPI configurations (sweeping |S_w| and |I_w|), the adaptive strategy
// started from each configuration, and foMPI. Paper parameters: R-MAT
// 2^20 vertices, 2^24 edges, P = 32; |S_w| ∈ {64, 128} MB, |I_w| up to
// 256K entries.
func Fig15LCCParams(g *graph.CSR, p, maxVerts int, storageSizes, indexSizes []int) ([]LCCConfigRow, *lsb.Table, error) {
	var rows []LCCConfigRow
	tbl := lsb.NewTable(fmt.Sprintf("Fig 15: LCC vertex time (N=%d, P=%d)", g.N, p),
		"system", "|I_w|", "|S_w|(B)", "time/vertex", "hit rate", "adjustments")

	// foMPI reference.
	res, err := lccRun(g, p, maxVerts, func(win rma.Window) (getter.Getter, error) {
		return getter.NewRaw(win), nil
	}, nil)
	if err != nil {
		return rows, tbl, err
	}
	fompi := LCCConfigRow{System: "foMPI", TimePerVert: res.TimePerVertex()}
	rows = append(rows, fompi)
	tbl.AddRow("foMPI", "-", "-", fompi.TimePerVert, "-", "-")

	for _, sw := range storageSizes {
		for _, iw := range indexSizes {
			for _, adaptive := range []bool{false, true} {
				fleet := newClampiFleet(p, core.Params{
					Mode: core.AlwaysCache, IndexSlots: iw, StorageBytes: sw,
					Adaptive: adaptive, TuneInterval: 2048, Seed: 3,
				})
				res, err := lccRun(g, p, maxVerts, fleet.factory, nil)
				if err != nil {
					return rows, tbl, err
				}
				s := fleet.totals()
				name := "CLaMPI-fixed"
				if adaptive {
					name = "CLaMPI-adaptive"
				}
				row := LCCConfigRow{
					System:       name,
					IndexSlots:   iw,
					StorageBytes: sw,
					TimePerVert:  res.TimePerVertex(),
					HitRate:      s.HitRate(),
					Adjustments:  s.Adjustments,
				}
				rows = append(rows, row)
				tbl.AddRow(name, iw, sw, row.TimePerVert, fmt.Sprintf("%.3f", row.HitRate), row.Adjustments)
			}
		}
	}
	return rows, tbl, nil
}

// Fig16Row is the access-type breakdown of one LCC configuration.
type Fig16Row struct {
	System       string
	IndexSlots   int
	HitFrac      float64
	DirectFrac   float64
	ConflictFrac float64
	CapFailFrac  float64
}

// Fig16LCCStats reproduces Fig. 16: access-type statistics of the LCC run
// with a fixed |S_w|, per index size, fixed vs adaptive. Paper
// parameters: |S_w| = 64 MB, same graph as Fig. 15.
func Fig16LCCStats(g *graph.CSR, p, maxVerts, storageBytes int, indexSizes []int) ([]Fig16Row, *lsb.Table, error) {
	var rows []Fig16Row
	tbl := lsb.NewTable(fmt.Sprintf("Fig 16: LCC access stats (|S_w|=%dB)", storageBytes),
		"system", "|I_w|", "hit", "direct", "conflicting", "capacity+failed")
	for _, iw := range indexSizes {
		for _, adaptive := range []bool{false, true} {
			fleet := newClampiFleet(p, core.Params{
				Mode: core.AlwaysCache, IndexSlots: iw, StorageBytes: storageBytes,
				Adaptive: adaptive, TuneInterval: 2048, Seed: 3,
			})
			if _, err := lccRun(g, p, maxVerts, fleet.factory, nil); err != nil {
				return rows, tbl, err
			}
			s := fleet.totals()
			name := "fixed"
			if adaptive {
				name = "adaptive"
			}
			row := Fig16Row{
				System:       name,
				IndexSlots:   iw,
				HitFrac:      s.HitRate(),
				DirectFrac:   s.Rate(core.AccessDirect),
				ConflictFrac: s.Rate(core.AccessConflicting),
				CapFailFrac:  s.Rate(core.AccessCapacity) + s.Rate(core.AccessFailing),
			}
			rows = append(rows, row)
			tbl.AddRow(name, iw,
				fmt.Sprintf("%.3f", row.HitFrac),
				fmt.Sprintf("%.3f", row.DirectFrac),
				fmt.Sprintf("%.3f", row.ConflictFrac),
				fmt.Sprintf("%.3f", row.CapFailFrac))
		}
	}
	return rows, tbl, nil
}

// Fig17Row is one (system, P) weak-scaling measurement; the stats fields
// feed Fig. 18.
type Fig17Row struct {
	System      string
	P           int
	Scale       int
	TimePerVert simtime.Duration
	Adjustments int64
	HitFrac     float64
	DirectFrac  float64
	CapFailFrac float64
}

// Fig17And18LCCWeak reproduces Figs. 17 and 18: the LCC weak-scaling
// experiment (vertex processing time per system as P grows, with the
// graph scale growing alongside) and its access-type statistics. Paper
// parameters: scales 19..22 with EF = 16 over P = 16..128,
// |I_w| = 128K, |S_w| = 128 MB.
func Fig17And18LCCWeak(baseScale, edgeFactor int, ps []int, maxVerts, indexSlots, storageBytes int) ([]Fig17Row, *lsb.Table, *lsb.Table, error) {
	var rows []Fig17Row
	t17 := lsb.NewTable("Fig 17: LCC weak scaling", "P", "scale", "system", "time/vertex", "adjustments")
	t18 := lsb.NewTable("Fig 18: LCC weak scaling stats", "P", "system", "hit", "direct", "capacity+failed")

	for pi, p := range ps {
		scale := baseScale + pi
		g := BuildLCCGraph(scale, edgeFactor, 555)
		for _, sys := range []string{"foMPI", "CLaMPI-fixed", "CLaMPI-adaptive"} {
			var fleet *clampiFleet
			mk := func(win rma.Window) (getter.Getter, error) { return getter.NewRaw(win), nil }
			if sys != "foMPI" {
				fleet = newClampiFleet(p, core.Params{
					Mode: core.AlwaysCache, IndexSlots: indexSlots, StorageBytes: storageBytes,
					Adaptive: sys == "CLaMPI-adaptive", TuneInterval: 2048, Seed: 3,
				})
				mk = fleet.factory
			}
			res, err := lccRun(g, p, maxVerts, mk, nil)
			if err != nil {
				return rows, t17, t18, err
			}
			row := Fig17Row{System: sys, P: p, Scale: scale, TimePerVert: res.TimePerVertex()}
			if fleet != nil {
				s := fleet.totals()
				row.Adjustments = s.Adjustments
				row.HitFrac = s.HitRate()
				row.DirectFrac = s.Rate(core.AccessDirect)
				row.CapFailFrac = s.Rate(core.AccessCapacity) + s.Rate(core.AccessFailing)
				t18.AddRow(p, sys,
					fmt.Sprintf("%.3f", row.HitFrac),
					fmt.Sprintf("%.3f", row.DirectFrac),
					fmt.Sprintf("%.3f", row.CapFailFrac))
			}
			rows = append(rows, row)
			t17.AddRow(p, scale, sys, row.TimePerVert, row.Adjustments)
		}
	}
	return rows, t17, t18, nil
}
