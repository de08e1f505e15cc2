package core

// Differential tests of the hit path: one recorded get sequence driven
// through every way an application can issue it must deliver the same
// bytes, count the same Stats and advance the virtual clock by the same
// amount; and every condition that makes a get more than "probe, copy,
// account" keeps the classification it has always had.

import (
	"bytes"
	"math/rand"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/graph"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/rmat"
	"clampi/internal/simtime"
	"clampi/internal/workload"
)

// seqGet is one get of a recorded sequence.
type seqGet struct{ target, disp, size int }

// recordedSeq builds the regions of a five-rank world and two get
// sequences over them, each a list of batches: churn is the §IV-A micro
// sequence (256 distinct gets of 1 B to 64 KiB sampled 1024 times) as
// batches of one against rank 4, and lcc is rank 0's per-vertex batched
// remote adjacency gets of LCC on an R-MAT graph of scale 8 over ranks
// 0-3 — the shape lcc_replay_sim issues at scale 14.
func recordedSeq(seed int64) (regions [][]byte, churn, lcc [][]seqGet) {
	g := graph.Build(1<<8, rmat.Generate(8, 16, rmat.Graph500, seed))
	var d0 *graph.Dist
	for r := 0; r < 4; r++ {
		d := graph.Distribute(g, 4, r)
		regions = append(regions, d.LocalAdjBytes())
		if r == 0 {
			d0 = d
		}
	}
	for v := d0.Lo; v < d0.Hi; v++ {
		var batch []seqGet
		for _, u := range g.Neighbors(v) {
			if !d0.Owned(int(u)) {
				owner, disp, size := d0.RemoteLoc(int(u))
				batch = append(batch, seqGet{owner, disp, size})
			}
		}
		if len(batch) > 0 {
			lcc = append(lcc, batch)
		}
	}
	specs, seq, regionSize := workload.Micro(256, 1024, seed)
	region := make([]byte, regionSize)
	rand.New(rand.NewSource(seed)).Read(region)
	regions = append(regions, region)
	for _, s := range seq {
		churn = append(churn, []seqGet{{4, specs[s].Disp, specs[s].Size}})
	}
	return regions, churn, lcc
}

// hitDriver is one way of issuing the recorded sequence.
type hitDriver struct {
	name     string
	scalar   bool // Get per op instead of GetBatch per batch
	observer bool // with an Observer installed
}

var hitDrivers = []hitDriver{
	{name: "Get", scalar: true},
	{name: "GetBatch"},
	{name: "GetBatch+Observer", observer: true},
}

// accessTally counts OnAccess events by classification.
type accessTally struct {
	hits, misses int64
}

func (a *accessTally) OnAccess(ev AccessEvent) {
	if ev.Type == AccessHit {
		a.hits++
	} else {
		a.misses++
	}
}
func (*accessTally) OnEviction(EvictionEvent)     {}
func (*accessTally) OnAdjustment(AdjustmentEvent) {}
func (*accessTally) OnEpochClose(EpochEvent)      {}

// hitRun is what one driver's run of the sequence produced. The warm
// figures cover the last pass alone, which finds every range cached.
type hitRun struct {
	stats, warmStats Stats
	now, warmNow     simtime.Duration
	tally            accessTally
}

// runHitSeq drives the sequence on rank 0 of a fresh world and cache —
// churn, then three passes of lcc — checking every delivered buffer
// against the target's region after its flush. The 1 MiB cache is a
// fraction of churn's working set and many times lcc's, so the run sees
// evictions, conflicts and failing accesses before it ends in a pass of
// full hits.
func runHitSeq(t *testing.T, seed int64, d hitDriver) hitRun {
	t.Helper()
	regions, churn, lcc := recordedSeq(seed)
	var res hitRun
	p := Params{Mode: AlwaysCache, IndexSlots: 256, StorageBytes: 1 << 20, Seed: seed}
	if d.observer {
		p.Observer = &res.tally
	}
	buf := make([]byte, 1<<workload.MaxSizeExp)
	var ops []rma.GetOp
	pass := func(c *Cache, win *mpi.Win, batches [][]seqGet) error {
		for _, b := range batches {
			ops = ops[:0]
			off := 0
			for _, g := range b {
				ops = append(ops, rma.GetOp{Dst: buf[off : off+g.size : off+g.size], Target: g.target, Disp: g.disp})
				off += g.size
			}
			if d.scalar {
				for _, op := range ops {
					if err := c.Get(op.Dst, datatype.Byte, len(op.Dst), op.Target, op.Disp); err != nil {
						return err
					}
				}
			} else if err := c.GetBatch(ops); err != nil {
				return err
			}
			if err := win.FlushAll(); err != nil {
				return err
			}
			for _, op := range ops {
				if !bytes.Equal(op.Dst, regions[op.Target][op.Disp:op.Disp+len(op.Dst)]) {
					t.Errorf("%s: wrong bytes for target %d disp %d size %d", d.name, op.Target, op.Disp, len(op.Dst))
				}
			}
		}
		return nil
	}
	err := mpi.Run(len(regions), mpi.Config{}, func(r *mpi.Rank) error {
		win := r.WinCreate(regions[r.ID()], nil)
		defer win.Free()
		defer r.Barrier()
		if r.ID() != 0 {
			return nil
		}
		c, err := New(win, p)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		for _, batches := range [][][]seqGet{churn, lcc, lcc} {
			if err := pass(c, win, batches); err != nil {
				return err
			}
		}
		coldStats, coldNow := c.Stats(), r.Clock().Now()
		if err := pass(c, win, lcc); err != nil {
			return err
		}
		res.stats, res.now = c.Stats(), r.Clock().Now()
		res.warmStats, res.warmNow = res.stats.Sub(coldStats), res.now-coldNow
		if c.view != nil {
			// Evictions, conflicts and failing accesses, but no write and
			// no notification: the miss path must not be maintaining the
			// range view (range.go).
			t.Errorf("%s: a read-only run built the ordered view", d.name)
		}
		return win.UnlockAll()
	})
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	return res
}

// sansBatch clears the counters that only say how the gets were
// submitted.
func sansBatch(s Stats) Stats {
	s.BatchOps, s.BatchMisses, s.BatchMessages = 0, 0, 0
	return s
}

// TestHitPathDifferential drives the recorded sequence through scalar
// Get, GetBatch and GetBatch with an Observer. Coalescing changes what a
// batch of misses costs (fewer messages, one victim scan, merged
// ranges), so whole-run Stats and clock are compared between the two
// batched runs, against each run's golden, and across all three on the
// warm pass, where every get is a full hit.
func TestHitPathDifferential(t *testing.T) {
	for _, seed := range []int64{1, 20170529} {
		runs := make([]hitRun, len(hitDrivers))
		for i, d := range hitDrivers {
			runs[i] = runHitSeq(t, seed, d)
		}
		get, batch, observed := runs[0], runs[1], runs[2]

		if w := get.warmStats; w.Gets == 0 || w.FullHits != w.Gets {
			t.Fatalf("seed %d: warm pass is not all full hits: %+v", seed, w)
		}
		for i, r := range runs[1:] {
			if sansBatch(r.warmStats) != sansBatch(get.warmStats) || r.warmNow != get.warmNow {
				t.Errorf("seed %d: warm pass of %s differs from Get:\n%+v at %d\n%+v at %d", seed, hitDrivers[i+1].name,
					r.warmStats, r.warmNow, get.warmStats, get.warmNow)
			}
		}
		if observed.stats != batch.stats || observed.now != batch.now {
			t.Errorf("seed %d: an Observer changed the run:\n%+v at %d\n%+v at %d", seed,
				observed.stats, observed.now, batch.stats, batch.now)
		}
		if ta, st := observed.tally, observed.stats; ta.hits != st.Hits || ta.hits+ta.misses != st.Gets {
			t.Errorf("seed %d: observer saw %d hits and %d misses, Stats has %d hits of %d gets", seed, ta.hits, ta.misses, st.Hits, st.Gets)
		}
		if get.stats.Capacity == 0 || get.stats.Conflicting == 0 || get.stats.Failing == 0 || batch.stats.BatchMessages >= batch.stats.BatchMisses {
			t.Errorf("seed %d: the sequence no longer exercises the miss path: %+v", seed, get.stats)
		}
		if seed == 1 {
			checkGolden(t, "Get", get, goldenHitGet, goldenHitGetNow)
			checkGolden(t, "GetBatch", batch, goldenHitBatch, goldenHitBatchNow)
		}
	}
}

// The Stats and virtual time of the seed-1 sequence: a refactor that
// moves either has changed behaviour, not only host time. A change of
// index placement moves them, since placement decides which entries
// conflict and which the eviction sample sees.
var (
	goldenHitGet = Stats{Gets: 4465, Hits: 4004, FullHits: 4004, Direct: 298, Conflicting: 112, Capacity: 7, Failing: 44,
		Evictions: 162, VisitedSlots: 800, NonEmptyVisited: 573, EvictionScans: 50,
		BytesFromCache: 3905985, BytesFromNetwork: 3246312,
		LookupTime: 357200, EvictTime: 61000, CopyTime: 262720, MgmtTime: 196090}
	goldenHitGetNow = simtime.Duration(1737951)
	goldenHitBatch  = Stats{Gets: 4465, Hits: 4004, FullHits: 4004, Direct: 298, Conflicting: 112, Capacity: 7, Failing: 44,
		Evictions: 162, VisitedSlots: 800, NonEmptyVisited: 573, EvictionScans: 50,
		BytesFromCache: 3905985, BytesFromNetwork: 3246312, BatchOps: 4465, BatchMisses: 171, BatchMessages: 95,
		LookupTime: 357200, EvictTime: 61000, CopyTime: 266369, MgmtTime: 201220}
	goldenHitBatchNow = simtime.Duration(1724783)
)

func checkGolden(t *testing.T, name string, r hitRun, stats Stats, now simtime.Duration) {
	t.Helper()
	if r.stats != stats || r.now != now {
		t.Errorf("%s drifted from the golden:\ngot  %#v at %d\nwant %#v at %d", name, r.stats, r.now, stats, now)
	}
}

// hitCase is one condition under which a get is more than a probe, a
// copy and a counter update. The cache holds A = (1, 0, 64 B) and the
// filler F = (1, 1024, 64 B) when arrange runs; want is the Stats delta
// over the get under test followed by a get of F (a plain full hit), the
// pair issued as two Gets or as one GetBatch.
type hitCase struct {
	name    string
	params  func(p *Params)
	write   func(win *mpi.Win) error // rank 1's notified write, before arrange
	arrange func(c *Cache) error
	op      rma.GetOp
	want    Stats
	wantDst func(n int) []byte // nil: the target's pattern
}

func hitCases() []hitCase {
	const look, copy64 = CostLookup, simtime.Duration(22) // copyCost(64)
	const copy32 = simtime.Duration(21)                   // copyCost(32)
	buf := make([]byte, 256)
	twoFull := Stats{Gets: 2, Hits: 2, FullHits: 2, BytesFromCache: 128, LookupTime: 2 * look, CopyTime: 2 * copy64}
	with := func(s Stats, f func(*Stats)) Stats { f(&s); return s }
	return []hitCase{{
		name: "full hit",
		op:   rma.GetOp{Dst: buf[:64], Target: 1, Disp: 0},
		want: twoFull,
	}, {
		name: "partial hit",
		op:   rma.GetOp{Dst: buf[:128], Target: 1, Disp: 0},
		want: with(twoFull, func(s *Stats) {
			s.FullHits, s.PartialHits, s.BytesFromNetwork, s.MgmtTime = 1, 1, 64, CostAlloc
		}),
	}, {
		name:    "PENDING hit",
		arrange: func(c *Cache) error { return c.Get(make([]byte, 64), datatype.Byte, 64, 1, 512) },
		op:      rma.GetOp{Dst: buf[:64], Target: 1, Disp: 512},
		want:    with(twoFull, func(s *Stats) { s.PendingHits, s.CopyTime = 1, copy64 }),
	}, {
		name:    "staleDefer",
		arrange: func(c *Cache) error { c.staleDefer = true; return nil },
		op:      rma.GetOp{Dst: buf[:64], Target: 1, Disp: 0},
		want:    with(twoFull, func(s *Stats) { s.StaleServes = 2 }),
	}, {
		name:    "dirty-span overlap",
		params:  func(p *Params) { p.WriteBack = true },
		arrange: func(c *Cache) error { return c.Put(fill(64, 0xAB), datatype.Byte, 64, 1, 0) },
		op:      rma.GetOp{Dst: buf[:64], Target: 1, Disp: 0},
		want:    with(twoFull, func(s *Stats) { s.DirtyFlushes = 1 }),
		wantDst: func(n int) []byte { return fill(n, 0xAB) },
	}, {
		name:   "armed non-empty notify queue",
		params: func(p *Params) { p.NotifyTargeted = true },
		write:  func(win *mpi.Win) error { return win.PutNotify(fill(64, 0xCD), datatype.Byte, 64, 1, 0, 7) },
		op:     rma.GetOp{Dst: buf[:64], Target: 1, Disp: 0},
		// The patch is one more 64 B copy. It is found by the range query
		// every write makes (cohere), which is charged to the clock, not
		// to LookupTime: no index probe precedes it.
		want: with(twoFull, func(s *Stats) {
			s.Notifications, s.NotifyPatches, s.CopyTime = 1, 1, 3*copy64
		}),
		wantDst: func(n int) []byte { return fill(n, 0xCD) },
	}, {
		// The entry is filled by 4 Int64 elements and read as 32 Byte
		// ones: a transfer is its dense bytes, whatever its element type.
		name: "element-type mix",
		arrange: func(c *Cache) error {
			if err := c.Get(make([]byte, 32), datatype.Int64, 4, 1, 2048); err != nil {
				return err
			}
			return c.Win().FlushAll()
		},
		op:   rma.GetOp{Dst: buf[:32], Target: 1, Disp: 2048},
		want: with(twoFull, func(s *Stats) { s.BytesFromCache, s.CopyTime = 96, copy64+copy32 }),
	}, {
		name: "zero-length op",
		arrange: func(c *Cache) error {
			if err := c.Get(nil, datatype.Byte, 0, 1, 3000); err != nil {
				return err
			}
			return c.Win().FlushAll()
		},
		op:   rma.GetOp{Dst: buf[:0], Target: 1, Disp: 3000},
		want: with(twoFull, func(s *Stats) { s.BytesFromCache, s.CopyTime = 64, copy64+20 }),
	}}
}

// TestHitPathConditions pins, for each such condition, the classification
// and charges the get has had since before full hits got a routine of
// their own, identically through Get and through GetBatch.
func TestHitPathConditions(t *testing.T) {
	for _, hc := range hitCases() {
		var elapsed [2]simtime.Duration // through Get, through GetBatch
		for i, name := range []string{hc.name + "/Get", hc.name + "/GetBatch"} {
			batched := i == 1
			t.Run(name, func(t *testing.T) {
				p := alwaysParams()
				if hc.params != nil {
					hc.params(&p)
				}
				reader := func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
					filler := rma.GetOp{Dst: make([]byte, 64), Target: 1, Disp: 1024}
					for _, disp := range []int{0, filler.Disp} {
						if err := c.Get(make([]byte, 64), datatype.Byte, 64, 1, disp); err != nil {
							return err
						}
					}
					if err := win.FlushAll(); err != nil {
						return err
					}
					r.Barrier() // the writer goes
					r.Barrier() // its write landed
					if hc.arrange != nil {
						if err := hc.arrange(c); err != nil {
							return err
						}
					}
					before, t0 := c.Stats(), r.Clock().Now()
					if batched {
						if err := c.GetBatch([]rma.GetOp{hc.op, filler}); err != nil {
							return err
						}
					} else {
						if err := c.Get(hc.op.Dst, datatype.Byte, len(hc.op.Dst), hc.op.Target, hc.op.Disp); err != nil {
							return err
						}
						if err := c.Get(filler.Dst, datatype.Byte, len(filler.Dst), filler.Target, filler.Disp); err != nil {
							return err
						}
					}
					got := sansBatch(c.Stats().Sub(before))
					elapsed[i] = r.Clock().Now() - t0
					last := c.LastAccess()
					if err := win.FlushAll(); err != nil {
						return err
					}
					if got != hc.want {
						t.Errorf("Stats delta:\ngot  %#v\nwant %#v", got, hc.want)
					}
					if last.Type != AccessHit || last.Issued || last.Partial {
						t.Errorf("filler classified %+v, want a full hit", last)
					}
					var want []byte
					if hc.wantDst != nil {
						want = hc.wantDst(len(hc.op.Dst))
					} else {
						for i := range hc.op.Dst {
							want = append(want, pattern(hc.op.Disp+i))
						}
					}
					if !bytes.Equal(hc.op.Dst, want) {
						t.Errorf("delivered %v, want %v", hc.op.Dst, want)
					}
					checkData(t, filler.Dst, filler.Disp)
					return nil
				}
				writer := func(win *mpi.Win, r *mpi.Rank) (err error) {
					r.Barrier()
					if hc.write != nil {
						err = hc.write(win)
					}
					r.Barrier()
					return err
				}
				withNotifyWorld(t, 4096, p, reader, writer)
			})
		}
		if elapsed[0] != elapsed[1] {
			t.Errorf("%s: clock advanced %d through Get, %d through GetBatch", hc.name, elapsed[0], elapsed[1])
		}
	}
}
