package experiments

import (
	"fmt"

	"clampi/internal/core"
	"clampi/internal/lsb"
	"clampi/internal/simtime"
	"clampi/internal/storage"
	"clampi/internal/workload"
)

// stride rounds a transfer size up to the cache-line allocation unit so
// distinct gets never overlap.
func stride(size int) int {
	return (size + storage.CacheLine - 1) / storage.CacheLine * storage.CacheLine
}

// Fig7Row is one (access type, size) cost characterization.
type Fig7Row struct {
	Type   string
	Size   int
	Median simtime.Duration
	Lookup simtime.Duration
	Evict  simtime.Duration
	Copy   simtime.Duration
	// VsFoMPI is median(foMPI)/median(this): >1 means faster than the
	// uncached get.
	VsFoMPI float64
}

// fig7Types lists the access classes characterized by Fig. 7.
var fig7Types = []string{"foMPI", "hitting", "direct", "conflicting", "capacity", "failing"}

// Fig7AccessCosts reproduces Fig. 7: the latency of a get per access type
// and data size, with the cost breakdown of the caching phases. Paper
// parameters: sizes up to 64 KB, Z = 20K.
func Fig7AccessCosts(sizes []int, reps int) ([]Fig7Row, *lsb.Table, error) {
	if reps <= 0 {
		reps = 50
	}
	var rows []Fig7Row
	tbl := lsb.NewTable("Fig 7: caching costs per access type and size",
		"size(B)", "type", "median", "lookup", "evict", "copy", "vs foMPI")
	for _, size := range sizes {
		base := simtime.Duration(0)
		for _, typ := range fig7Types {
			row, err := fig7One(typ, size, reps)
			if err != nil {
				return rows, tbl, fmt.Errorf("fig7 %s/%dB: %w", typ, size, err)
			}
			if typ == "foMPI" {
				base = row.Median
			}
			if row.Median > 0 {
				row.VsFoMPI = float64(base) / float64(row.Median)
			}
			rows = append(rows, row)
			tbl.AddRow(size, typ, row.Median, row.Lookup, row.Evict, row.Copy, row.VsFoMPI)
		}
	}
	return rows, tbl, nil
}

// fig7One measures one access class at one size.
func fig7One(typ string, size, reps int) (Fig7Row, error) {
	st := stride(size)
	row := Fig7Row{Type: typ, Size: size}
	// Region must hold enough distinct displacements for all samples
	// (the conflicting sampler burns up to 8 displacements per sample)
	// plus the prefill.
	distinct := 64 + 8*reps + 8
	region := distinct * st

	collect := func(params *core.Params, prefill int, sample func(env *microEnv, i int) (simtime.Duration, core.Access, error), want core.AccessType) error {
		var samples []simtime.Duration
		var acc core.Access
		err := withMicro(region, params, func(env *microEnv) error {
			buf := make([]byte, size)
			for i := 0; i < prefill; i++ {
				if _, err := env.get(buf, i*st); err != nil {
					return err
				}
			}
			for i := 0; i < reps; i++ {
				d, a, err := sample(env, i)
				if err != nil {
					return err
				}
				if env.cache != nil && a.Type != want {
					return fmt.Errorf("sample %d classified %v, want %v", i, a.Type, want)
				}
				samples = append(samples, d)
				acc = a
			}
			return nil
		})
		if err != nil {
			return err
		}
		res := lsb.Summarize(samples)
		row.Median = res.Median
		row.Lookup = acc.Lookup
		row.Evict = acc.Evict
		row.Copy = acc.Copy
		return nil
	}

	fresh := func(env *microEnv, i int) (simtime.Duration, core.Access, error) {
		buf := make([]byte, size)
		d, err := env.get(buf, (64+i)*st)
		var a core.Access
		if env.cache != nil {
			a = env.cache.LastAccess()
		}
		return d, a, err
	}

	switch typ {
	case "foMPI":
		return row, collect(nil, 0, fresh, 0)
	case "hitting":
		p := alwaysCacheParams(4096, region+1<<20)
		repeat := func(env *microEnv, i int) (simtime.Duration, core.Access, error) {
			buf := make([]byte, size)
			d, err := env.get(buf, 0)
			return d, env.cache.LastAccess(), err
		}
		return row, collect(&p, 1, repeat, core.AccessHit)
	case "direct":
		p := alwaysCacheParams(4096, region+1<<20)
		return row, collect(&p, 0, fresh, core.AccessDirect)
	case "conflicting":
		// Tiny index, ample storage: once the index saturates, every
		// new entry evicts one of its candidate slots' occupants. The
		// index is prefilled well past its capacity so the inserts of
		// the measured gets fail deterministically.
		p := alwaysCacheParams(16, region+1<<20)
		p.SampleSize = 4
		conflict := func(env *microEnv, i int) (simtime.Duration, core.Access, error) {
			buf := make([]byte, size)
			for attempt := 0; ; attempt++ {
				d, err := env.get(buf, (64+i*8+attempt)*st)
				if err != nil {
					return 0, core.Access{}, err
				}
				a := env.cache.LastAccess()
				if a.Type == core.AccessConflicting {
					return d, a, nil
				}
				if attempt >= 7 {
					return d, a, nil // let collect report the class
				}
			}
		}
		return row, collect(&p, 64, conflict, core.AccessConflicting)
	case "capacity":
		// Storage of exactly 8 entries: every new distinct get needs
		// one eviction, which frees exactly one entry of equal size.
		// The index is sized to the working set so the eviction scan
		// stays short (v_i grows with index sparsity — Fig. 11).
		p := alwaysCacheParams(64, 8*st)
		return row, collect(&p, 8, fresh, core.AccessCapacity)
	case "failing":
		// Storage smaller than one entry: caching always fails, and
		// the (empty-index) eviction scan covers the whole table, so
		// the table is kept small.
		p := alwaysCacheParams(16, st/2)
		return row, collect(&p, 0, fresh, core.AccessFailing)
	}
	return row, fmt.Errorf("unknown access type %q", typ)
}

// Fig8Row is one (system, size) overlap measurement.
type Fig8Row struct {
	Type    string
	Size    int
	Overlap float64 // fraction of the get latency hideable behind compute
}

// Fig8Overlap reproduces Fig. 8: the portion of communication that can be
// overlapped with computation, per access type and size. Overlap is
// 1 − busy/total where busy is the CPU-occupied share of the operation
// (issue overhead + cache management + copies) and total its latency.
func Fig8Overlap(sizes []int) ([]Fig8Row, *lsb.Table, error) {
	var rows []Fig8Row
	tbl := lsb.NewTable("Fig 8: communication/computation overlap", "size(B)", "type", "overlap")
	for _, size := range sizes {
		for _, typ := range []string{"foMPI", "direct", "capacity", "failing"} {
			ov, err := fig8One(typ, size)
			if err != nil {
				return rows, tbl, fmt.Errorf("fig8 %s/%dB: %w", typ, size, err)
			}
			rows = append(rows, Fig8Row{Type: typ, Size: size, Overlap: ov})
			tbl.AddRow(size, typ, fmt.Sprintf("%.3f", ov))
		}
	}
	return rows, tbl, nil
}

func fig8One(typ string, size int) (float64, error) {
	st := stride(size)
	region := 64 * st
	measure := func(params *core.Params, prefill int, disp int) (float64, error) {
		var overlap float64
		err := withMicro(region, params, func(env *microEnv) error {
			buf := make([]byte, size)
			for i := 0; i < prefill; i++ {
				if _, err := env.get(buf, i*st); err != nil {
					return err
				}
			}
			t0, b0 := env.clock.Now(), env.clock.Measured()
			if _, err := env.get(buf, disp); err != nil {
				return err
			}
			total := env.clock.Now() - t0
			busy := env.clock.Measured() - b0
			if total > 0 {
				overlap = 1 - float64(busy)/float64(total)
			}
			return nil
		})
		return overlap, err
	}
	switch typ {
	case "foMPI":
		return measure(nil, 0, 0)
	case "direct":
		p := alwaysCacheParams(1<<12, region+1<<20)
		return measure(&p, 0, 32*st)
	case "capacity":
		p := alwaysCacheParams(64, 8*st)
		return measure(&p, 8, 32*st)
	case "failing":
		p := alwaysCacheParams(16, st/2)
		return measure(&p, 0, 32*st)
	}
	return 0, fmt.Errorf("unknown type %q", typ)
}

// Fig9Row is one (strategy, initial |I_w|) completion time.
type Fig9Row struct {
	Strategy    string
	IndexSlots  int
	Time        simtime.Duration
	Adjustments int64
}

// Fig9Adaptive reproduces Fig. 9: micro-benchmark completion time as a
// function of the (initial) hash table size, fixed vs adaptive. Paper
// parameters: N = 1K distinct gets, Z = 20K.
func Fig9Adaptive(indexSizes []int, n, z int) ([]Fig9Row, *lsb.Table, error) {
	specs, seq, regionSize := workload.Micro(n, z, 4242)
	storageBytes := regionSize + (1 << 20) // ample: isolate index effects
	var rows []Fig9Row
	tbl := lsb.NewTable("Fig 9: completion time vs hash table size",
		"|I_w|", "strategy", "time", "adjustments")
	for _, slots := range indexSizes {
		for _, adaptive := range []bool{false, true} {
			p := alwaysCacheParams(slots, storageBytes)
			p.Adaptive = adaptive
			p.TuneInterval = int64(n)
			var total simtime.Duration
			var adj int64
			err := withMicro(regionSize, &p, func(env *microEnv) error {
				t, err := env.runSequence(specs, seq)
				if err != nil {
					return err
				}
				total = t
				adj = env.cache.Stats().Adjustments
				return nil
			})
			if err != nil {
				return rows, tbl, err
			}
			name := "fixed"
			if adaptive {
				name = "adaptive"
			}
			rows = append(rows, Fig9Row{Strategy: name, IndexSlots: slots, Time: total, Adjustments: adj})
			tbl.AddRow(slots, name, total, adj)
		}
	}
	return rows, tbl, nil
}

// Fig10Point is one sampled buffer-occupancy measurement.
type Fig10Point struct {
	Scheme    string
	SeqID     int
	Occupancy float64
}

// Fig10Fragmentation reproduces Fig. 10: the fraction of occupied cache
// memory as the get sequence progresses, per victim-selection scheme.
// Sampling starts at the first capacity/failing access (buffer
// saturation), as in the paper. Paper parameters: Z = 100K, |I_w| = 1.5K.
func Fig10Fragmentation(n, z, indexSlots, storageBytes int, samples int) ([]Fig10Point, *lsb.Table, error) {
	specs, seq, regionSize := workload.Micro(n, z, 777)
	if samples <= 0 {
		samples = 25
	}
	var points []Fig10Point
	tbl := lsb.NewTable("Fig 10: buffer occupancy vs get sequence", "scheme", "seqID", "occupancy")
	for _, scheme := range []core.EvictionScheme{core.SchemeTemporal, core.SchemePositional, core.SchemeFull} {
		p := alwaysCacheParams(indexSlots, storageBytes)
		p.Scheme = scheme
		err := withMicro(regionSize, &p, func(env *microEnv) error {
			buf := make([]byte, 1<<workload.MaxSizeExp)
			saturatedAt := -1
			every := len(seq) / samples
			if every == 0 {
				every = 1
			}
			for i, gi := range seq {
				s := specs[gi]
				if _, err := env.get(buf[:s.Size], s.Disp); err != nil {
					return err
				}
				if saturatedAt < 0 {
					st := env.cache.Stats()
					if st.Capacity+st.Failing > 0 {
						saturatedAt = i
					}
					continue
				}
				if (i-saturatedAt)%every == 0 {
					points = append(points, Fig10Point{
						Scheme:    scheme.String(),
						SeqID:     i,
						Occupancy: env.cache.Occupancy(),
					})
				}
			}
			return nil
		})
		if err != nil {
			return points, tbl, err
		}
	}
	for _, pt := range points {
		tbl.AddRow(pt.Scheme, pt.SeqID, fmt.Sprintf("%.3f", pt.Occupancy))
	}
	return points, tbl, nil
}

// Fig11Row aggregates the three panels of Fig. 11 for one (scheme, |I_w|).
type Fig11Row struct {
	Scheme          string
	IndexSlots      int
	VisitedPerEvict float64
	HitRate         float64
	FreeSpace       float64
	NonEmptyVisited float64 // fraction of visited slots holding an entry
}

// Fig11VictimSelection reproduces Fig. 11: eviction-scan length, hit
// ratio, and free space as functions of the hash table size, per victim
// selection scheme. Paper parameters: Z = 100K, M = 16.
func Fig11VictimSelection(indexSizes []int, n, z, storageBytes int) ([]Fig11Row, *lsb.Table, error) {
	rows, err := fig11Rows(indexSizes, n, z, storageBytes, microCacheSeed)
	tbl := lsb.NewTable("Fig 11: victim selection vs hash table size",
		"|I_w|", "scheme", "visited/evict", "hit rate", "free frac", "non-empty/visited")
	for _, row := range rows {
		tbl.AddRow(row.IndexSlots, row.Scheme,
			fmt.Sprintf("%.1f", row.VisitedPerEvict),
			fmt.Sprintf("%.3f", row.HitRate),
			fmt.Sprintf("%.3f", row.FreeSpace),
			fmt.Sprintf("%.3f", row.NonEmptyVisited))
	}
	return rows, tbl, err
}

// fig11Rows runs Fig. 11's configurations with the given cache seed (the
// seed of the index's hash functions and eviction sampling).
func fig11Rows(indexSizes []int, n, z, storageBytes int, seed int64) ([]Fig11Row, error) {
	specs, seq, regionSize := workload.Micro(n, z, 999)
	var rows []Fig11Row
	for _, slots := range indexSizes {
		for _, scheme := range []core.EvictionScheme{core.SchemeTemporal, core.SchemePositional, core.SchemeFull} {
			p := alwaysCacheParams(slots, storageBytes)
			p.Scheme = scheme
			p.Seed = seed
			var row Fig11Row
			err := withMicro(regionSize, &p, func(env *microEnv) error {
				if _, err := env.runSequence(specs, seq); err != nil {
					return err
				}
				st := env.cache.Stats()
				row = Fig11Row{
					Scheme:          scheme.String(),
					IndexSlots:      slots,
					VisitedPerEvict: st.AvgVisitedPerEviction(),
					HitRate:         st.HitRate(),
					FreeSpace:       1 - env.cache.Occupancy(),
					NonEmptyVisited: st.AvgNonEmptyVisited(),
				}
				return nil
			})
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
