package main

import (
	"math/rand"
	"time"

	"clampi"
	"clampi/internal/avl"
	"clampi/internal/core"
	"clampi/internal/cuckoo"
	"clampi/internal/mpi"
	"clampi/internal/notify"
	"clampi/internal/storage"
	"clampi/internal/wire"
	"clampi/internal/workload"
)

// Probes are isolated loops over one layer's public API, fed with the
// workload's own key and size stream where it has one. Per-operation
// cost is loop wall time over iterations; each loop runs for at least
// 0.2 s and keeps its results live through sink.

var sink int

// keyStreamer is implemented by workloads that have a key and size
// stream of their own; the others are probed with the §IV-A micro set.
type keyStreamer interface {
	keyStream() ([]cuckoo.Key, []int)
}

type prober struct {
	min   time.Duration
	seed  int64
	keys  []cuckoo.Key // distinct
	sizes []int
	out   map[string]float64

	scanSlotNs float64 // host ns per slot of the eviction sampling scan
}

func runProbes(inst instance, e *env, out map[string]float64) ([]modelRow, error) {
	p := &prober{min: 200 * time.Millisecond, seed: e.seed, out: out}
	if e.toy {
		p.min = 2 * time.Millisecond
	}
	var keys []cuckoo.Key
	if ks, ok := inst.(keyStreamer); ok {
		keys, p.sizes = ks.keyStream()
	} else {
		specs, _, _ := workload.Micro(4096, 4096, e.seed)
		for _, s := range specs {
			keys = append(keys, cuckoo.Key{Target: 1, Disp: s.Disp})
			p.sizes = append(p.sizes, s.Size)
		}
	}
	seen := make(map[cuckoo.Key]bool, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			p.keys = append(p.keys, k)
		}
	}
	p.cuckoo()
	p.storage()
	p.notify()
	p.codec()
	hitNs, err := p.core()
	if err != nil {
		return nil, err
	}
	rows := []modelRow{
		{"CostLookup", int64(core.CostLookup), out["cuckoo.lookup_hit_ns"], "model.lookup_ratio"},
		{"CostInsert (load<=0.5)", int64(core.CostInsert), out["cuckoo.insert_free_ns"], ""},
		{"CostInsert (load>=0.95)", int64(core.CostInsert), out["cuckoo.insert_full_ns"], "model.insert_ratio"},
		{"CostAlloc", int64(core.CostAlloc), out["storage.alloc_ns"], "model.alloc_ratio"},
		{"CostFree", int64(core.CostFree), out["storage.free_ns"], "model.free_ratio"},
		{"CostPerScanSlot", int64(core.CostPerScanSlot), p.scanSlotNs, "model.scan_slot_ratio"},
		{"full hit, 64 B", fullHitVns, hitNs, "model.full_hit_ratio"},
	}
	for _, r := range rows {
		if r.metric != "" {
			out[r.metric] = ratio(r.hostNs, float64(r.modeled))
		}
	}
	return rows, nil
}

// fullHitVns is what the model charges one L1 full hit of 64 B (the
// figure clampi-perfgate holds the hit path to).
const fullHitVns = 108

// modelRow sets one constant of internal/core/costs.go beside what this
// implementation costs on the host clock.
type modelRow struct {
	constant string
	modeled  int64 // virtual ns
	hostNs   float64
	metric   string
}

// loop calls f, which performs n operations, until p.min has passed and
// returns the wall nanoseconds per operation.
func (p *prober) loop(n int, f func()) float64 {
	var iters int
	start := time.Now()
	for time.Since(start) < p.min {
		f()
		iters++
	}
	return float64(time.Since(start)) / float64(iters*n)
}

// key returns the i-th probe key, synthesizing fresh ones past the
// workload's own distinct keys.
func (p *prober) key(i int) cuckoo.Key {
	if i < len(p.keys) {
		return p.keys[i]
	}
	return cuckoo.Key{Target: 1 << 20, Disp: i * 64}
}

const probeSlots = 16384

func (p *prober) cuckoo() {
	half := probeSlots / 2
	t := cuckoo.New[int](probeSlots, p.seed)
	fill := func() {
		for i := 0; i < half; i++ {
			t.Insert(p.key(i), i)
		}
	}

	var insertNs time.Duration
	var rounds int
	for insertNs < p.min {
		t.Clear()
		start := time.Now()
		fill()
		insertNs += time.Since(start)
		rounds++
	}
	p.out["cuckoo.insert_free_ns"] = float64(insertNs) / float64(rounds*half)

	p.out["cuckoo.lookup_hit_ns"] = p.loop(half, func() {
		for i := 0; i < half; i++ {
			_, s, _ := t.Lookup(p.key(i))
			sink += s
		}
	})
	p.out["cuckoo.lookup_miss_ns"] = p.loop(half, func() {
		for i := 0; i < half; i++ {
			k := p.key(i)
			k.Target += 1 << 21
			_, s, _ := t.Lookup(k)
			sink += s
		}
	})
	p.out["cuckoo.walk_ns_per_slot"] = p.loop(probeSlots, func() {
		t.Walk(func(k cuckoo.Key, v int) bool { sink += v; return true })
	})
	// The eviction procedure's sampling scan (§III-D): a run of
	// DefaultSampleSize slots from a random start.
	p.scanSlotNs = p.loop(core.DefaultSampleSize, func() {
		n := 0
		t.Scan(t.RandomSlot(), func(_ int, _ cuckoo.Key, v int, used bool) bool {
			if used {
				sink += v
			}
			n++
			return n < core.DefaultSampleSize
		})
	})

	// Inserts into a nearly full table: the displacement walk runs long
	// and may end with an element left homeless, which the caller must
	// place by evicting a candidate — the cache's conflicting access.
	next := half
	for t.LoadFactor() < 0.95 {
		if r := t.Insert(p.key(next), next); !r.Placed {
			t.ReplaceAt(r.CandidateSlots[0], r.HomelessKey, r.HomelessVal)
		}
		next++
	}
	const batch = 64
	var fullNs time.Duration
	var inserts, fails int
	var placed []cuckoo.Key
	for fullNs < p.min {
		placed = placed[:0]
		start := time.Now()
		for i := 0; i < batch; i++ {
			k := p.key(next)
			next++
			if r := t.Insert(k, next); r.Placed {
				placed = append(placed, k)
			} else {
				fails++
			}
		}
		fullNs += time.Since(start)
		inserts += batch
		for _, k := range placed { // hold the load where it was
			t.Delete(k)
		}
	}
	p.out["cuckoo.insert_full_ns"] = float64(fullNs) / float64(inserts)
	p.out["cuckoo.insert_full_fail_share"] = ratio(float64(fails), float64(inserts))
}

func (p *prober) storage() {
	const capacity, batch = 1 << 20, 32
	m := storage.New(capacity)
	rng := rand.New(rand.NewSource(p.seed))
	var live []*storage.Region
	var allocNs, freeNs time.Duration
	var allocs, fails, frees, next int
	for allocNs+freeNs < 2*p.min {
		start := time.Now()
		for i := 0; i < 2*batch && m.Occupancy() < 0.9; i++ {
			r := m.Alloc(p.sizes[next%len(p.sizes)])
			next++
			allocs++
			if r == nil {
				fails++
				continue
			}
			live = append(live, r)
		}
		allocNs += time.Since(start)
		n := min(batch, len(live)) // move random victims to the tail, outside the timed sections
		for i := 0; i < n; i++ {
			j, last := rng.Intn(len(live)-i), len(live)-1-i
			live[j], live[last] = live[last], live[j]
		}
		victims := live[len(live)-n:]
		live = live[:len(live)-n]
		start = time.Now()
		for _, r := range victims {
			m.FreeRegion(r)
		}
		freeNs += time.Since(start)
		frees += n
	}
	p.out["storage.alloc_ns"] = ratio(float64(allocNs), float64(allocs))
	p.out["storage.free_ns"] = ratio(float64(freeNs), float64(frees))
	p.out["storage.alloc_fail_share"] = ratio(float64(fails), float64(allocs))

	const nodes = 1024
	var tree avl.Tree[int]
	p.out["avl.insert_delete_ns"] = p.loop(2*nodes, func() {
		for i := 0; i < nodes; i++ {
			tree.Insert(avl.Key{Size: p.sizes[i%len(p.sizes)], Off: i * 64}, i)
		}
		for i := 0; i < nodes; i++ {
			tree.Delete(avl.Key{Size: p.sizes[i%len(p.sizes)], Off: i * 64})
		}
	})
}

func (p *prober) notify() {
	q := notify.NewQueue(notify.DefaultCapacity)
	buf := make([]notify.Notification, notify.DefaultCapacity)
	data := make([]byte, 512)
	var pushNs, pollNs time.Duration
	var items int
	for pushNs+pollNs < p.min {
		start := time.Now()
		for i := 0; i < notify.DefaultCapacity; i++ {
			q.Push(notify.Notification{Origin: 1, Target: 1, Disp: i * 512, Len: 512, Tag: uint32(i), Data: data})
		}
		mid := time.Now()
		n, _ := q.Poll(buf)
		pollNs += time.Since(mid)
		pushNs += mid.Sub(start)
		items += n
	}
	p.out["notify.push_ns"] = ratio(float64(pushNs), float64(items))
	p.out["notify.poll_ns_per_item"] = ratio(float64(pollNs), float64(items))
}

func (p *prober) codec() {
	for _, c := range []struct {
		name string
		size int
	}{{"64B", 64}, {"64KiB", 64 << 10}} {
		payload := make([]byte, c.size)
		rand.New(rand.NewSource(p.seed)).Read(payload)
		var frame []byte
		p.out["wire.encode_ns_"+c.name] = p.loop(1, func() {
			frame = wire.AppendFrame(frame[:0], wire.OpData, 7, payload)
		})
		p.out["wire.decode_ns_"+c.name] = p.loop(1, func() {
			f, n, err := wire.DecodeFrame(frame, 0)
			if err != nil {
				panic(err) // a frame this program just encoded
			}
			sink += n + len(f.Payload)
		})
	}
}

// core probes the public window over a cache populated with probeSlots
// entries of 64 B: a write that exactly covers a cached entry, a range
// invalidation (today both walk the whole index), and a full hit.
func (p *prober) core() (hitNs float64, err error) {
	const entry = 64
	region := make([]byte, probeSlots*entry)
	err = mpi.Run(1, mpi.Config{}, func(r *mpi.Rank) error {
		win := r.WinCreate(region, nil)
		defer win.Free()
		w, err := clampi.Wrap(win, clampi.WithMode(clampi.AlwaysCache), clampi.WithIndexSlots(4*probeSlots),
			clampi.WithStorageBytes(4*len(region)), clampi.WithSeed(p.seed))
		if err != nil {
			return err
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		buf := make([]byte, entry)
		const epoch = 256 // operations per flush
		sweep := func(from, n int, op func(disp int) error) error {
			for i := from; i < from+n; i++ {
				if err := op(i % probeSlots * entry); err != nil {
					return err
				}
			}
			return w.FlushAll()
		}
		get := func(disp int) error { return w.GetBytes(buf, 0, disp) }
		for i := 0; i < probeSlots; i += epoch {
			if err := sweep(i, epoch, get); err != nil {
				return err
			}
		}
		var opErr error
		at := 0
		timed := func(op func(disp int) error) float64 {
			return p.loop(epoch, func() {
				if err := sweep(at, epoch, op); err != nil {
					opErr = err
				}
				at += epoch
			})
		}
		hitNs = timed(get)
		p.out["core.put_populated_ns"] = timed(func(disp int) error { return w.Put(buf, clampi.Byte, entry, 0, disp) })
		p.out["core.invalidate_ns"] = timed(func(disp int) error {
			sink += w.InvalidateRange(0, disp, entry)
			return nil
		})
		if opErr != nil {
			return opErr
		}
		return w.UnlockAll()
	})
	return hitNs, err
}
