package main

import (
	"bytes"
	"math/rand"
	"time"

	"clampi"
	"clampi/internal/cuckoo"
	"clampi/internal/datatype"
	"clampi/internal/graph"
	"clampi/internal/mpi"
	"clampi/internal/rmat"
	"clampi/internal/workload"
)

// The two replay workloads drive the cache with a recorded get sequence
// and no application compute, over the simulated backend: profiled, the
// applications spend 70-78% of their host time in their own kernels
// there, so an app x sim cell cannot show a change in the cache layers.

// onRank0 runs body on rank 0 of a fresh simulated world whose ranks
// expose regions; the other ranks only host their region. Every rank
// reaches the closing barrier even when body fails.
func onRank0(regions [][]byte, body func(win *mpi.Win) error) error {
	return mpi.Run(len(regions), mpi.Config{}, func(r *mpi.Rank) error {
		win := r.WinCreate(regions[r.ID()], nil)
		defer win.Free()
		defer r.Barrier()
		if r.ID() != 0 {
			return nil
		}
		return body(win)
	})
}

// loc is one get of a recorded sequence.
type loc struct {
	target, disp, size int32
}

// replay is a get sequence over fixed regions: per-vertex batches for
// lcc_replay_sim, scalar Get+Flush for miss_churn_sim.
type replay struct {
	regions [][]byte
	opts    []clampi.Option
	passes  int

	locs    []loc
	batches []int // batch b is locs[batches[b]:batches[b+1]]
	scalar  bool  // batches of one, issued as Get instead of GetBatch
	buf     []byte
	ops     []clampi.GetOp // the batch being issued, rebuilt per batch as lcc.Run does
}

// pass issues the sequence once. With verify set every delivered buffer
// is compared with the authoritative region bytes after its flush.
func (p *replay) pass(w *clampi.Window, log *spanLog, uncached, verify bool) (failed int64, err error) {
	for b := 0; b+1 < len(p.batches); b++ {
		p.ops = p.ops[:0]
		off := 0
		for _, l := range p.locs[p.batches[b]:p.batches[b+1]] {
			end := off + int(l.size)
			p.ops = append(p.ops, clampi.GetOp{Dst: p.buf[off:end:end], Target: int(l.target), Disp: int(l.disp)})
			off = end
		}
		switch {
		case uncached:
			for i := range p.ops {
				op := &p.ops[i]
				if err := w.GetUncached(op.Dst, datatype.Byte, len(op.Dst), op.Target, op.Disp); err != nil {
					return failed, err
				}
			}
		case p.scalar:
			err = p.get(w, log, &p.ops[0])
		default:
			sp := log.begin(spClampiGetBatch)
			err = w.GetBatch(p.ops)
			log.end(sp)
		}
		if err != nil {
			return failed, err
		}
		if err := p.flush(w, log); err != nil {
			return failed, err
		}
		if !verify {
			continue
		}
		for _, op := range p.ops {
			if !bytes.Equal(op.Dst, p.regions[op.Target][op.Disp:op.Disp+len(op.Dst)]) {
				failed++
			}
		}
	}
	return failed, nil
}

func (p *replay) get(w *clampi.Window, log *spanLog, op *clampi.GetOp) error {
	sp := log.begin(spClampiGet)
	err := w.GetBytes(op.Dst, op.Target, op.Disp)
	log.end(sp)
	return err
}

func (p *replay) flush(w *clampi.Window, log *spanLog) error {
	sp := log.begin(spClampiFlush)
	err := w.FlushAll()
	log.end(sp)
	return err
}

// run executes passes on a fresh world and cache and times them on rank 0.
func (p *replay) run(tr *tracer, uncached, verify bool) (repResult, error) {
	var res repResult
	err := onRank0(p.regions, func(win *mpi.Win) error {
		rw, log, err := tr.wrap(win)
		if err != nil {
			return err
		}
		w, err := clampi.Wrap(rw, p.opts...)
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		clock := win.Endpoint().Clock()
		v0, t0 := clock.Now(), time.Now()
		for i := 0; i < p.passes; i++ {
			sp := log.begin(spPass)
			_, err := p.pass(w, log, uncached, false)
			log.end(sp)
			if err != nil {
				return err
			}
		}
		res.wall = time.Since(t0)
		res.virtual = clock.Now() - v0
		res.ops = int64(p.passes * len(p.locs))
		res.stats = w.Stats()
		if verify {
			res.checked = int64(len(p.locs))
			if res.failed, err = p.pass(w, nil, uncached, true); err != nil {
				return err
			}
		}
		return w.UnlockAll()
	})
	return res, err
}

func (p *replay) rep(tr *tracer, verify bool) (repResult, error) { return p.run(tr, false, verify) }

func (p *replay) uncached() (time.Duration, error) {
	r, err := p.run(nil, true, false)
	return r.wall, err
}

func (p *replay) close() {}

// keyStream is the key and size sequence of one pass, for the layer probes.
func (p *replay) keyStream() ([]cuckoo.Key, []int) {
	keys, sizes := make([]cuckoo.Key, len(p.locs)), make([]int, len(p.locs))
	for i, l := range p.locs {
		keys[i], sizes[i] = cuckoo.Key{Target: int(l.target), Disp: int(l.disp)}, int(l.size)
	}
	return keys, sizes
}

// lccGraph builds the R-MAT input of the LCC workloads and each rank's view.
func lccGraph(scale, ef, p int, seed int64) (*graph.CSR, []*graph.Dist) {
	g := graph.Build(1<<scale, rmat.Generate(scale, ef, rmat.Graph500, seed))
	dists := make([]*graph.Dist, p)
	for r := range dists {
		dists[r] = graph.Distribute(g, p, r)
	}
	return g, dists
}

func lccRegions(dists []*graph.Dist) [][]byte {
	regions := make([][]byte, len(dists))
	for r, d := range dists {
		regions[r] = d.LocalAdjBytes()
	}
	return regions
}

// setupLCCReplay records rank 0's per-vertex batched get sequence of LCC
// (the one lcc.Run issues) on R-MAT scale 14, EF 16, P = 4.
func setupLCCReplay(e *env) (instance, error) {
	scale, passes := 14, 6
	if e.toy {
		scale, passes = 9, 2
	}
	_, dists := lccGraph(scale, 16, 4, e.seed)
	p := &replay{
		regions: lccRegions(dists),
		passes:  passes,
		opts: []clampi.Option{clampi.WithMode(clampi.AlwaysCache), clampi.WithIndexSlots(16384),
			clampi.WithStorageBytes(2 << 20), clampi.WithSeed(e.seed)},
		batches: []int{0},
	}
	d := dists[0]
	maxBatch := 0
	for v := d.Lo; v < d.Hi; v++ {
		adj := d.G.Neighbors(v)
		if len(adj) < 2 {
			continue
		}
		total := 0
		for _, u := range adj {
			if d.Owned(int(u)) {
				continue
			}
			owner, disp, size := d.RemoteLoc(int(u))
			p.locs = append(p.locs, loc{int32(owner), int32(disp), int32(size)})
			total += size
		}
		if n := len(p.locs); n > p.batches[len(p.batches)-1] {
			p.batches = append(p.batches, n)
			maxBatch = max(maxBatch, total)
		}
	}
	p.buf = make([]byte, maxBatch)
	return p, nil
}

// setupMissChurn builds the paper's §IV-A micro sequence: 4096 distinct
// gets of 1 B to 64 KiB, sampled 262144 times, as scalar Get+Flush
// against one target.
func setupMissChurn(e *env) (instance, error) {
	n, z := 4096, 32768
	if e.toy {
		n, z = 256, 4096
	}
	specs, seq, regionSize := workload.Micro(n, z, e.seed)
	region := make([]byte, regionSize)
	rand.New(rand.NewSource(e.seed)).Read(region)
	p := &replay{
		regions: [][]byte{nil, region},
		passes:  1,
		opts: []clampi.Option{clampi.WithMode(clampi.AlwaysCache), clampi.WithIndexSlots(512),
			clampi.WithStorageBytes(1 << 20), clampi.WithSeed(e.seed)},
		locs:    make([]loc, len(seq)),
		batches: make([]int, len(seq)+1),
		scalar:  true,
		buf:     make([]byte, 1<<workload.MaxSizeExp),
	}
	for i, s := range seq {
		p.locs[i] = loc{1, int32(specs[s].Disp), int32(specs[s].Size)}
		p.batches[i+1] = i + 1
	}
	return p, nil
}
