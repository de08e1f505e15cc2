package experiments

// Cost-aware caching experiments (DESIGN.md §15): the per-distance-class
// micro breakdown behind the by_distance object of `clampi micro -json`, and
// the skewed-placement LCC comparison of cost-aware vs locality-blind
// caching — identical kernel results, less virtual network time.

import (
	"fmt"

	"clampi/internal/core"
	"clampi/internal/lsb"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// DistClassBench is one distance class's micro numbers: a fixed get
// workload replayed against a target of that class.
type DistClassBench struct {
	Gets           int64   `json:"gets"`
	Hits           int64   `json:"hits"`
	Misses         int64   `json:"misses"`
	VirtualNsPerOp float64 `json:"virtual_ns_per_op"`
}

// MicroDistance replays a fixed workload (distinct 256 B gets, then
// re-gets) against one target of every distance class — same process,
// same socket, same node, other node, other group — through one
// locality-aware cache, and returns the per-class breakdown keyed by
// class name. The near classes show the admission bypass (re-gets stay
// misses), the far ones the cached steady state.
func MicroDistance() (map[string]DistClassBench, error) {
	// A 12-rank world shaped 4 ranks/node, 2 nodes/group puts one target
	// in every class relative to rank 0: itself (same process), rank 1
	// (same socket), rank 2 (other socket), rank 4 (other node, same
	// group), rank 8 (other group).
	const (
		worldSize = 12
		opBytes   = 256
		distinct  = 32
	)
	targets := []int{0, 1, 2, 4, 8}
	cfg := mpi.Config{RanksPerNode: 4, NodesPerGroup: 2}
	p := alwaysCacheParams(4096, 256<<10)
	p.LocalityAware = true

	out := make(map[string]DistClassBench, len(targets))
	err := runWorldCfg(worldSize, cfg, func(r *mpi.Rank) error {
		region := make([]byte, distinct*opBytes)
		for i := range region {
			region[i] = byte(i * 31)
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			fnErr = func() error {
				pp := p
				pp.Observer = newObserver()
				cache, err := core.New(win, pp)
				if err != nil {
					return err
				}
				if err := win.LockAll(); err != nil {
					return err
				}
				defer win.UnlockAll()
				dst := make([]byte, opBytes)
				clock := r.Clock()
				phase := make([]simtime.Duration, len(targets))
				for ti, target := range targets {
					t0 := clock.Now()
					for pass := 0; pass < 2; pass++ {
						for i := 0; i < distinct; i++ {
							if err := cache.Get(dst, byteType, opBytes, target, i*opBytes); err != nil {
								return err
							}
						}
						if err := win.FlushAll(); err != nil {
							return err
						}
					}
					phase[ti] = clock.Now() - t0
				}
				ds := cache.DistanceStats()
				for ti, target := range targets {
					class := win.DistanceClass(target)
					d := ds[class]
					out[rma.DistanceClassNames[class]] = DistClassBench{
						Gets:           d.Gets,
						Hits:           d.Hits,
						Misses:         d.Misses,
						VirtualNsPerOp: float64(phase[ti]) / float64(2*distinct),
					}
				}
				return nil
			}()
		}
		r.Barrier()
		return fnErr
	})
	return out, err
}

// LCCLocalityRow is one system's outcome of the skewed-placement LCC
// comparison.
type LCCLocalityRow struct {
	System         string  `json:"system"`
	SumLCC         float64 `json:"sum_lcc"`
	Wedges         int64   `json:"wedges"`
	TotalVirtualNs int64   `json:"total_virtual_ns"`
	CommVirtualNs  int64   `json:"comm_virtual_ns"`
	RemoteBytes    int64   `json:"remote_bytes"`
	HitRate        float64 `json:"hit_rate"`
	Evictions      int64   `json:"evictions"`
	CheapSkips     int64   `json:"cheap_skips"`
}

// LCCLocalityCompare runs the same LCC instance twice over a skewed rank
// placement (rpn ranks per node, one node per group, so inter-node
// traffic pays the most expensive distance class): once locality-blind,
// once cost-aware. The kernel results (SumLCC, Wedges) must be
// bit-identical — admission and eviction policy change where bytes come
// from, never what they are — while the cost-aware run spends less
// virtual time communicating when the cache is capacity-bound. Every
// field of both rows is a function of the arguments alone.
func LCCLocalityCompare(scale, edgeFactor, p, rpn, maxVerts, indexSlots, storageBytes int) (blind, aware LCCLocalityRow, tbl *lsb.Table, err error) {
	g := BuildLCCGraph(scale, edgeFactor, 777)
	cfg := mpi.Config{RanksPerNode: rpn, NodesPerGroup: 1}
	params := core.Params{Mode: core.AlwaysCache, IndexSlots: indexSlots, StorageBytes: storageBytes, Seed: 3}

	run := func(system string, params core.Params) (LCCLocalityRow, error) {
		fleet := newClampiFleet(p, params)
		res, err := lccRunCfg(g, p, cfg, maxVerts, fleet.factory, nil)
		if err != nil {
			return LCCLocalityRow{}, err
		}
		st := fleet.totals()
		return LCCLocalityRow{
			System: system, SumLCC: res.SumLCC, Wedges: res.Wedges,
			TotalVirtualNs: int64(res.Time), CommVirtualNs: int64(res.CommTime),
			RemoteBytes: res.RemoteBytes, HitRate: st.HitRate(),
			Evictions: st.Evictions, CheapSkips: st.CheapSkips,
		}, nil
	}
	if blind, err = run("locality-blind", params); err != nil {
		return blind, aware, nil, err
	}
	params.LocalityAware = true
	if aware, err = run("cost-aware", params); err != nil {
		return blind, aware, nil, err
	}

	tbl = lsb.NewTable(fmt.Sprintf("Cost-aware caching: LCC under skewed placement (scale=%d, P=%d, %d ranks/node)", scale, p, rpn),
		"system", "sum LCC", "wedges", "total vns", "comm vns", "remote bytes", "hit rate", "evictions", "cheap skips")
	for _, row := range []LCCLocalityRow{blind, aware} {
		tbl.AddRow(row.System, fmt.Sprintf("%.6f", row.SumLCC), row.Wedges,
			row.TotalVirtualNs, row.CommVirtualNs, row.RemoteBytes,
			fmt.Sprintf("%.3f", row.HitRate), row.Evictions, row.CheapSkips)
	}
	return blind, aware, tbl, nil
}
