package experiments

// Machine-readable micro-benchmark summary backing the -json flag of
// `clampi micro`: one capacity-bound always-cache run whose virtual-time
// headline numbers (ops, hit rate, virtual ns/op, the batch coalescing
// ratio and the per-distance breakdown) are tracked across changes.

import (
	"clampi/internal/rma"
	"clampi/internal/workload"
)

// MicroBenchResult is the structured outcome of one MicroBench run.
type MicroBenchResult struct {
	Mode           string  `json:"mode"`
	DistinctGets   int     `json:"distinct_gets"`
	Ops            int64   `json:"ops"`
	HitRate        float64 `json:"hit_rate"`
	VirtualNsPerOp float64 `json:"virtual_ns_per_op"`
	TotalVirtualNs int64   `json:"total_virtual_ns"`
	// Headline numbers of the adjacent-range batch microbenchmark
	// (BatchMicroBench with default geometry): constituent misses per
	// merged message, and virtual ns/op batched vs sequential.
	BatchCoalesceRatio  float64 `json:"batch_coalesce_ratio"`
	BatchVirtualNsPerOp float64 `json:"batch_virtual_ns_per_op"`
	SeqVirtualNsPerOp   float64 `json:"seq_virtual_ns_per_op"`
	// Per-distance-class breakdown of a fixed locality-aware workload
	// (MicroDistance), keyed by class name — shows the admission bypass
	// keeping near classes miss-priced and far classes cache-priced.
	ByDistance map[string]DistClassBench `json:"by_distance"`
}

// MicroBench replays the §IV-A micro workload (N distinct gets sampled Z
// times, Zipf-like) through a CLaMPI always-cache window and returns the
// headline numbers.
func MicroBench(n, z int) (MicroBenchResult, error) {
	specs, seq, regionSize := workload.Micro(n, z, 31)
	p := alwaysCacheParams(n*2, 256<<10)
	var res MicroBenchResult
	err := withMicro(regionSize, &p, func(env *microEnv) error {
		t, err := env.runSequence(specs, seq)
		if err != nil {
			return err
		}
		st := env.cache.Stats()
		res = MicroBenchResult{
			Mode:           execMode.String(),
			DistinctGets:   n,
			Ops:            st.Gets,
			HitRate:        st.HitRate(),
			TotalVirtualNs: int64(t),
			VirtualNsPerOp: float64(t) / float64(st.Gets),
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	batch, err := BatchMicroBench(64, 16, 64)
	if err != nil {
		return res, err
	}
	res.BatchCoalesceRatio = batch.CoalesceRatio
	res.BatchVirtualNsPerOp = batch.BatchVirtualNsPerOp
	res.SeqVirtualNsPerOp = batch.SeqVirtualNsPerOp
	res.ByDistance, err = MicroDistance()
	if err != nil {
		return res, err
	}
	return res, nil
}

// BatchBenchResult summarizes the adjacent-range batch microbenchmark:
// the same miss workload issued as width-op batches versus sequential
// gets, one epoch per group either way.
type BatchBenchResult struct {
	Batches             int     `json:"batches"`
	OpsPerBatch         int     `json:"ops_per_batch"`
	OpBytes             int     `json:"op_bytes"`
	CoalesceRatio       float64 `json:"batch_coalesce_ratio"`
	BatchVirtualNsPerOp float64 `json:"batch_virtual_ns_per_op"`
	SeqVirtualNsPerOp   float64 `json:"seq_virtual_ns_per_op"`
	Speedup             float64 `json:"speedup"`
}

// BatchMicroBench measures miss coalescing: `batches` groups of `width`
// adjacent opBytes-sized ranges, every range a compulsory miss, issued
// (a) as one GetBatch per group and (b) as width sequential Gets — one
// epoch (FlushAll) per group in both variants. The batched variant merges
// each group into one remote message, paying one LogGP issue overhead o
// where the sequential variant pays width of them.
func BatchMicroBench(batches, width, opBytes int) (BatchBenchResult, error) {
	regionSize := batches * width * opBytes
	p := alwaysCacheParams(4*batches*width, 4*regionSize)
	res := BatchBenchResult{Batches: batches, OpsPerBatch: width, OpBytes: opBytes}

	var batchT, seqT int64
	var ratio float64
	err := withMicro(regionSize, &p, func(env *microEnv) error {
		dst := make([]byte, width*opBytes)
		ops := make([]rma.GetOp, width)
		t0 := env.clock.Now()
		for b := 0; b < batches; b++ {
			for i := 0; i < width; i++ {
				lo := i * opBytes
				ops[i] = rma.GetOp{
					Dst:    dst[lo : lo+opBytes],
					Target: 1,
					Disp:   (b*width + i) * opBytes,
				}
			}
			if err := env.cache.GetBatch(ops); err != nil {
				return err
			}
			if err := env.win.FlushAll(); err != nil {
				return err
			}
		}
		batchT = int64(env.clock.Now() - t0)
		ratio = env.cache.Stats().BatchCoalesceRatio()
		return nil
	})
	if err != nil {
		return res, err
	}

	err = withMicro(regionSize, &p, func(env *microEnv) error {
		dst := make([]byte, width*opBytes)
		t0 := env.clock.Now()
		for b := 0; b < batches; b++ {
			for i := 0; i < width; i++ {
				lo := i * opBytes
				if err := env.cache.Get(dst[lo:lo+opBytes], byteType, opBytes, 1, (b*width+i)*opBytes); err != nil {
					return err
				}
			}
			if err := env.win.FlushAll(); err != nil {
				return err
			}
		}
		seqT = int64(env.clock.Now() - t0)
		return nil
	})
	if err != nil {
		return res, err
	}

	ops := float64(batches * width)
	res.CoalesceRatio = ratio
	res.BatchVirtualNsPerOp = float64(batchT) / ops
	res.SeqVirtualNsPerOp = float64(seqT) / ops
	if batchT > 0 {
		res.Speedup = float64(seqT) / float64(batchT)
	}
	return res, nil
}
