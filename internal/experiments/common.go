package experiments

import (
	"clampi/internal/core"
	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/simtime"
	"clampi/internal/workload"
)

// byteType is the contiguous byte datatype all drivers transfer with.
var byteType = datatype.Byte

// microEnv is the two-process environment of §IV-A: an initiator (rank 0)
// and a target (rank 1) exposing a data region.
type microEnv struct {
	rank  *mpi.Rank
	win   rma.Window
	cache *core.Cache // nil for foMPI runs
	clock *simtime.Clock
}

// withMicro runs fn on the initiator of a 2-rank world whose target
// exposes regionSize bytes. params == nil selects a plain (uncached)
// window.
func withMicro(regionSize int, params *core.Params, fn func(env *microEnv) error) error {
	return mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, regionSize)
		if r.ID() == 1 {
			for i := range region {
				region[i] = byte(i * 31)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		// Collect rank 0's error without returning early: an early
		// return would skip the collectives below and deadlock the
		// other rank (the usual MPI error-path discipline).
		var fnErr error
		if r.ID() == 0 {
			env := &microEnv{rank: r, win: win, clock: r.Clock()}
			if params != nil {
				p := *params
				if p.Observer == nil {
					p.Observer = newObserver()
				}
				env.cache, fnErr = core.New(win, p)
			}
			if fnErr == nil {
				fnErr = win.LockAll()
			}
			if fnErr == nil {
				fnErr = fn(env)
				if err := win.UnlockAll(); fnErr == nil {
					fnErr = err
				}
			}
		}
		r.Barrier()
		return fnErr
	})
}

// get issues one get (cached when the env has a cache) followed by a
// flush, returning the operation's latency (issue → data in destination,
// the paper's definition).
func (e *microEnv) get(dst []byte, disp int) (simtime.Duration, error) {
	t0 := e.clock.Now()
	var err error
	if e.cache != nil {
		err = e.cache.Get(dst, byteType, len(dst), 1, disp)
	} else {
		err = e.win.Get(dst, byteType, len(dst), 1, disp)
	}
	if err != nil {
		return 0, err
	}
	if err := e.win.FlushAll(); err != nil {
		return 0, err
	}
	return e.clock.Now() - t0, nil
}

// runSequence replays a §IV-A workload (specs sampled by seq) through the
// environment and returns the total completion time.
func (e *microEnv) runSequence(specs []workload.GetSpec, seq []int) (simtime.Duration, error) {
	buf := make([]byte, 1<<workload.MaxSizeExp)
	t0 := e.clock.Now()
	for _, i := range seq {
		s := specs[i]
		if _, err := e.get(buf[:s.Size], s.Disp); err != nil {
			return 0, err
		}
	}
	return e.clock.Now() - t0, nil
}

// microCacheSeed is the cache seed of every micro run.
const microCacheSeed = 42

// alwaysCacheParams returns a baseline parameter set for micro runs.
func alwaysCacheParams(indexSlots, storageBytes int) core.Params {
	return core.Params{
		Mode:         core.AlwaysCache,
		IndexSlots:   indexSlots,
		StorageBytes: storageBytes,
		Seed:         microCacheSeed,
	}
}
