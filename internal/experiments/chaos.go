package experiments

// ChaosBench (DESIGN.md §11): run the three applications under seeded
// fault injection and assert the resilience layer keeps their results
// bit-identical to the fault-free run. Each (app, scenario) cell runs
// three times — fault-free reference, chaos, chaos replay with the same
// seed — and checks:
//
//   - the chaos result signature equals the fault-free one (retries,
//     breaker fail-over and corruption refetch never change what the
//     application computes), and
//   - the replay injected the *identical* fault sequence (fault.Counts
//     including the order-sensitive digest match), the reproducibility
//     contract of the injector.
//
// Signatures hash the applications' numerical outputs only (per-rank, in
// rank order) — times and counters are excluded, since fault handling
// legitimately changes them.

import (
	"fmt"
	"math"
	"sync"

	"clampi/internal/bfs"
	"clampi/internal/core"
	"clampi/internal/fault"
	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/lcc"
	"clampi/internal/lsb"
	"clampi/internal/mpi"
	"clampi/internal/nbody"
	"clampi/internal/rma"
	"clampi/internal/stencil"
)

// chaosFleet is a clampiFleet whose windows are wrapped in seeded fault
// injectors before the cache attaches. A nil scenario disables wrapping
// (the fault-free reference runs through the identical code path).
type chaosFleet struct {
	params core.Params
	sc     *fault.Scenario
	seed   int64

	mu     sync.Mutex // ranks run concurrently
	caches []*core.Cache
	inj    []*fault.Window
}

func newChaosFleet(p int, params core.Params, sc *fault.Scenario, seed int64) *chaosFleet {
	return &chaosFleet{params: params, sc: sc, seed: seed, caches: make([]*core.Cache, p)}
}

// wrap decorates one rank's window with the fleet's scenario; each rank
// gets a distinct injector seed so ranks fail independently.
func (f *chaosFleet) wrap(win rma.Window) rma.Window {
	if f.sc == nil {
		return win
	}
	fw := fault.Wrap(win, *f.sc, f.seed+int64(win.Endpoint().ID()))
	f.mu.Lock()
	f.inj = append(f.inj, fw)
	f.mu.Unlock()
	return fw
}

// factory is the GetterFactory of a chaos run: injector, then cache.
func (f *chaosFleet) factory(win rma.Window) (getter.Getter, error) {
	params := f.params
	if params.Observer == nil {
		params.Observer = newObserver()
	}
	c, err := core.New(f.wrap(win), params)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.caches[win.Endpoint().ID()] = c
	f.mu.Unlock()
	return getter.NewCached(c), nil
}

// totals sums the per-rank cache statistics.
func (f *chaosFleet) totals() core.Stats {
	var t core.Stats
	for _, c := range f.caches {
		if c != nil {
			t = t.Add(c.Stats())
		}
	}
	return t
}

// faults aggregates the per-rank injected-fault counts.
func (f *chaosFleet) faults() fault.Counts {
	var t fault.Counts
	f.mu.Lock()
	for _, w := range f.inj {
		t = t.Add(w.Counts())
	}
	f.mu.Unlock()
	return t
}

// chaosParams is the resilience configuration every chaos run uses:
// unlimited retries (the run must converge under any injected rate),
// circuit breaker and fill verification.
func chaosParams(mode core.Mode, seed int64) core.Params {
	retry := rma.DefaultRetryPolicy()
	retry.MaxAttempts = 0 // unlimited; deadline-free, the outage scripts bound it
	brk := core.DefaultBreakerPolicy()
	return core.Params{
		Mode:         mode,
		IndexSlots:   1 << 12,
		StorageBytes: 1 << 20,
		Seed:         seed,
		Retry:        &retry,
		Breaker:      &brk,
		VerifyFills:  true,
	}
}

// sigHash folds a sequence of 64-bit words into an FNV-1a signature.
type sigHash uint64

func newSig() sigHash { return 14695981039346656037 }

func (h *sigHash) mix(v uint64) {
	const prime64 = 1099511628211
	x := uint64(*h)
	x ^= v
	x *= prime64
	*h = sigHash(x)
}

// chaosOutcome is one run of one application: its result signature and,
// for chaos runs, what the injectors did.
type chaosOutcome struct {
	sig    uint64
	faults fault.Counts
	stats  core.Stats
}

// chaosApp runs one application (by name) under an optional scenario and
// returns its outcome. p is the world size, seed drives both the
// injectors (seed+rank) and the cache RNGs.
func chaosApp(app string, p int, sc *fault.Scenario, seed int64) (chaosOutcome, error) {
	switch app {
	case "lcc":
		return chaosLCC(p, sc, seed)
	case "bfs":
		return chaosBFS(p, sc, seed)
	case "nbody":
		return chaosNBody(p, sc, seed)
	case "stencil":
		return chaosStencil(p, sc, seed)
	}
	return chaosOutcome{}, fmt.Errorf("experiments: unknown chaos app %q", app)
}

// ChaosApps lists the applications ChaosBench exercises.
func ChaosApps() []string { return []string{"lcc", "bfs", "nbody", "stencil"} }

// chaosGraph is the shared small R-MAT input of the LCC and BFS cells.
func chaosGraph() *graph.CSR { return BuildLCCGraph(8, 8, 77) }

// chaosLCC runs LCC (read-only adjacency → transparent mode) and signs
// (Vertices, Wedges, SumLCC) per rank in rank order.
func chaosLCC(p int, sc *fault.Scenario, seed int64) (chaosOutcome, error) {
	g := chaosGraph()
	fleet := newChaosFleet(p, chaosParams(core.Transparent, seed), sc, seed)
	results := make([]lcc.Result, p)
	err := mpi.Run(p, mpi.Config{}, func(r *mpi.Rank) error {
		d := graph.Distribute(g, p, r.ID())
		win := r.WinCreate(d.LocalAdjBytes(), nil)
		defer win.Free()
		gt, err := fleet.factory(win)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		res, err := lcc.Run(r.Clock(), d, gt, lcc.Config{})
		if err != nil {
			return err
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		results[r.ID()] = res // own slot: no lock needed
		r.Barrier()
		return nil
	})
	if err != nil {
		return chaosOutcome{}, err
	}
	sig := newSig()
	for i := range results {
		sig.mix(uint64(results[i].Vertices))
		sig.mix(uint64(results[i].Wedges))
		sig.mix(math.Float64bits(results[i].SumLCC))
	}
	return chaosOutcome{sig: uint64(sig), faults: fleet.faults(), stats: fleet.totals()}, nil
}

// chaosBFS runs the pull BFS (mutating frontier window → always-cache
// with the kernel's own per-level invalidation) and signs every owned
// vertex's level per rank in rank order.
func chaosBFS(p int, sc *fault.Scenario, seed int64) (chaosOutcome, error) {
	g := chaosGraph()
	fleet := newChaosFleet(p, chaosParams(core.AlwaysCache, seed), sc, seed)
	type rankResult struct {
		levels  []int32
		reached int
	}
	results := make([]rankResult, p)
	err := mpi.Run(p, mpi.Config{}, func(r *mpi.Rank) error {
		d := graph.Distribute(g, p, r.ID())
		frontier := make([]byte, d.Hi-d.Lo)
		win := r.WinCreate(frontier, nil)
		defer win.Free()
		gt, err := fleet.factory(win)
		if err != nil {
			return err
		}
		res, err := bfs.Run(r, d, win, frontier, gt, bfs.Config{Source: 1})
		if err != nil {
			return err
		}
		results[r.ID()] = rankResult{levels: res.Levels, reached: res.Reached}
		r.Barrier()
		return nil
	})
	if err != nil {
		return chaosOutcome{}, err
	}
	sig := newSig()
	for i := range results {
		sig.mix(uint64(results[i].reached))
		for _, lv := range results[i].levels {
			sig.mix(uint64(uint32(lv)))
		}
	}
	return chaosOutcome{sig: uint64(sig), faults: fleet.faults(), stats: fleet.totals()}, nil
}

// chaosNBody runs the persistent-window Barnes-Hut simulation (read-only
// tree per step, per-step invalidation) and signs every rank's per-step
// body digests in rank order.
func chaosNBody(p int, sc *fault.Scenario, seed int64) (chaosOutcome, error) {
	cfg := nbody.SimConfig{Bodies: 64, Steps: 3, Seed: 11}
	fleet := newChaosFleet(p, chaosParams(core.AlwaysCache, seed), sc, seed)
	results := make([][]nbody.StepStats, p)
	err := mpi.Run(p, mpi.Config{}, func(r *mpi.Rank) error {
		stats, err := nbody.RunSimPersistent(r, cfg, fleet.factory)
		if err != nil {
			return err
		}
		results[r.ID()] = stats
		r.Barrier()
		return nil
	})
	if err != nil {
		return chaosOutcome{}, err
	}
	sig := newSig()
	for i := range results {
		for _, st := range results[i] {
			sig.mix(st.BodiesDigest)
		}
	}
	return chaosOutcome{sig: uint64(sig), faults: fleet.faults(), stats: fleet.totals()}, nil
}

// chaosStencil runs the notification-driven halo exchange (DESIGN.md
// §16) — the one chaos cell whose coherence depends on PutNotify
// descriptors, so the "notify" scenario's dropped, duplicated and
// reordered deliveries hit the targeted-invalidation fallback paths
// directly. It signs the final grid checksum: conservative degradation
// (gap → blanket invalidation, anomaly → invalidate-not-patch) must
// keep the grid bit-identical to the fault-free run.
func chaosStencil(p int, sc *fault.Scenario, seed int64) (chaosOutcome, error) {
	params := chaosParams(core.Transparent, seed)
	cfg := stencil.Config{
		Ranks: p, Rows: 6, Cols: 48, Iters: 16,
		Notify:     true,
		Resilience: &params,
	}
	var mu sync.Mutex
	var inj []*fault.Window
	if sc != nil {
		cfg.Wrap = func(win rma.Window) rma.Window {
			fw := fault.Wrap(win, *sc, seed+int64(win.Endpoint().ID()))
			mu.Lock()
			inj = append(inj, fw)
			mu.Unlock()
			return fw
		}
	}
	res, err := stencil.Run(cfg, 0)
	if err != nil {
		return chaosOutcome{}, err
	}
	var fc fault.Counts
	mu.Lock()
	for _, w := range inj {
		fc = fc.Add(w.Counts())
	}
	mu.Unlock()
	sig := newSig()
	sig.mix(res.Checksum)
	return chaosOutcome{sig: uint64(sig), faults: fc, stats: res.Stats}, nil
}

// ChaosRow is one (application, scenario) cell of ChaosBench.
type ChaosRow struct {
	App      string
	Scenario string
	Faults   fault.Counts
	Stats    core.Stats // aggregate cache stats of the chaos run
	Match    bool       // chaos result bit-identical to fault-free
	Replay   bool       // same-seed rerun injected the identical sequence
}

// OK reports whether the cell passed both assertions.
func (r ChaosRow) OK() bool { return r.Match && r.Replay }

// ChaosBench runs every requested application under every scenario and
// returns one row per cell plus a rendered table. Apps and scenarios
// left nil select all. An assertion failure is reported in the row (and
// table), not as an error — the driver decides how loudly to fail.
func ChaosBench(p int, seed int64, apps []string, scenarios []fault.Scenario) ([]ChaosRow, *lsb.Table, error) {
	if apps == nil {
		apps = ChaosApps()
	}
	if scenarios == nil {
		scenarios = fault.Canned()
	}
	tbl := lsb.NewTable(fmt.Sprintf("Chaos: seeded fault injection (P=%d, seed=%d)", p, seed),
		"app", "scenario", "faults", "retries", "timeouts", "corrupt", "breaker", "match", "replay")
	var rows []ChaosRow
	for _, app := range apps {
		ref, err := chaosApp(app, p, nil, seed)
		if err != nil {
			return rows, tbl, fmt.Errorf("chaos %s fault-free: %w", app, err)
		}
		for i := range scenarios {
			sc := &scenarios[i]
			run, err := chaosApp(app, p, sc, seed)
			if err != nil {
				return rows, tbl, fmt.Errorf("chaos %s/%s: %w", app, sc.Name, err)
			}
			rerun, err := chaosApp(app, p, sc, seed)
			if err != nil {
				return rows, tbl, fmt.Errorf("chaos %s/%s replay: %w", app, sc.Name, err)
			}
			row := ChaosRow{
				App:      app,
				Scenario: sc.Name,
				Faults:   run.faults,
				Stats:    run.stats,
				Match:    run.sig == ref.sig,
				Replay:   rerun.faults == run.faults && rerun.sig == run.sig,
			}
			rows = append(rows, row)
			tbl.AddRow(app, sc.Name, row.Faults.Total(),
				row.Stats.Retries, row.Stats.Timeouts, row.Stats.CorruptFills,
				row.Stats.BreakerOpens,
				passFail(row.Match), passFail(row.Replay))
		}
	}
	return rows, tbl, nil
}

func passFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
