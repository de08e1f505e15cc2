package experiments

// Ablations beyond the paper's figures, probing the design choices
// DESIGN.md calls out: the eviction sample size M, the best-fit storage
// allocator, and the Cuckoo insertion search budget.

import (
	"fmt"

	"clampi/internal/core"
	"clampi/internal/cuckoo"
	"clampi/internal/lsb"
	"clampi/internal/simtime"
	"clampi/internal/storage"
	"clampi/internal/workload"
)

// SampleSizeRow is one eviction-sample-size measurement.
type SampleSizeRow struct {
	M         int
	Time      simtime.Duration
	HitRate   float64
	Visited   float64 // average slots visited per eviction
	Occupancy float64
}

// AblationSampleSize sweeps the eviction sample size M (paper §III-D uses
// M = 16) on a capacity-bound micro workload: larger samples pick better
// victims but cost more per eviction.
func AblationSampleSize(ms []int, n, z int) ([]SampleSizeRow, *lsb.Table, error) {
	specs, seq, regionSize := workload.Micro(n, z, 31)
	var rows []SampleSizeRow
	tbl := lsb.NewTable("Ablation: eviction sample size M",
		"M", "time", "hit rate", "visited/evict", "occupancy")
	for _, m := range ms {
		p := alwaysCacheParams(n*2, 256<<10)
		p.SampleSize = m
		var row SampleSizeRow
		err := withMicro(regionSize, &p, func(env *microEnv) error {
			t, err := env.runSequence(specs, seq)
			if err != nil {
				return err
			}
			st := env.cache.Stats()
			row = SampleSizeRow{
				M:         m,
				Time:      t,
				HitRate:   st.HitRate(),
				Visited:   st.AvgVisitedPerEviction(),
				Occupancy: env.cache.Occupancy(),
			}
			return nil
		})
		if err != nil {
			return rows, tbl, err
		}
		rows = append(rows, row)
		tbl.AddRow(m, row.Time, fmt.Sprintf("%.3f", row.HitRate),
			fmt.Sprintf("%.1f", row.Visited), fmt.Sprintf("%.3f", row.Occupancy))
	}
	return rows, tbl, nil
}

// AllocPolicyRow compares allocation policies.
type AllocPolicyRow struct {
	Policy    string
	Time      simtime.Duration
	HitRate   float64
	FailRate  float64
	Occupancy float64
}

// AblationAllocPolicy compares the paper's best-fit allocator against a
// first-fit baseline on the same capacity-bound workload: best fit keeps
// holes small and targeted, first fit splinters large regions.
func AblationAllocPolicy(n, z int) ([]AllocPolicyRow, *lsb.Table, error) {
	specs, seq, regionSize := workload.Micro(n, z, 67)
	var rows []AllocPolicyRow
	tbl := lsb.NewTable("Ablation: storage allocation policy",
		"policy", "time", "hit rate", "failing rate", "occupancy")
	for _, pol := range []storage.Policy{storage.BestFit, storage.FirstFit} {
		p := alwaysCacheParams(n*2, 256<<10)
		p.AllocPolicy = pol
		var row AllocPolicyRow
		err := withMicro(regionSize, &p, func(env *microEnv) error {
			t, err := env.runSequence(specs, seq)
			if err != nil {
				return err
			}
			st := env.cache.Stats()
			row = AllocPolicyRow{
				Policy:    pol.String(),
				Time:      t,
				HitRate:   st.HitRate(),
				FailRate:  st.Rate(core.AccessFailing),
				Occupancy: env.cache.Occupancy(),
			}
			return nil
		})
		if err != nil {
			return rows, tbl, err
		}
		rows = append(rows, row)
		tbl.AddRow(row.Policy, row.Time, fmt.Sprintf("%.3f", row.HitRate),
			fmt.Sprintf("%.3f", row.FailRate), fmt.Sprintf("%.3f", row.Occupancy))
	}
	return rows, tbl, nil
}

// CuckooSearchRow records the utilization reached before the first
// insertion failure for one search budget.
type CuckooSearchRow struct {
	Budget    int
	FirstFail float64 // load factor at first insertion failure
	AvgMoves  float64 // mean elements moved per insert until then
	MaxMoves  int
}

// AblationCuckooSearch sweeps the insertion search budget of the Cuckoo
// index (p = 4 hash functions): a larger budget reaches higher
// utilization before the first conflicting access, at the price of a
// dearer worst-case insert. Fotakis et al. report ~97% achievable space
// utilization.
func AblationCuckooSearch(budgets []int, slots int, seeds int) ([]CuckooSearchRow, *lsb.Table, error) {
	var rows []CuckooSearchRow
	tbl := lsb.NewTable("Ablation: Cuckoo insertion search budget (p=4)",
		"budget", "load at first failure", "avg moves", "max moves")
	for _, budget := range budgets {
		var loadSum, movesSum float64
		var inserts, maxMoves int
		for seed := 0; seed < seeds; seed++ {
			t := cuckoo.New[int](slots, int64(seed)*7+1)
			t.SetSearchBudget(budget)
			for i := 0; ; i++ {
				res := t.Insert(cuckoo.Key{Target: i & 7, Disp: i * 64}, i)
				movesSum += float64(res.Moves)
				inserts++
				maxMoves = max(maxMoves, res.Moves)
				if !res.Placed {
					loadSum += t.LoadFactor()
					break
				}
			}
		}
		row := CuckooSearchRow{
			Budget:    budget,
			FirstFail: loadSum / float64(seeds),
			AvgMoves:  movesSum / float64(inserts),
			MaxMoves:  maxMoves,
		}
		rows = append(rows, row)
		tbl.AddRow(budget, fmt.Sprintf("%.3f", row.FirstFail),
			fmt.Sprintf("%.2f", row.AvgMoves), row.MaxMoves)
	}
	return rows, tbl, nil
}
