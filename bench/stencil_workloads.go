package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"clampi/internal/core"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/stencil"
)

// stencilBench is stencil_sim and stencil_wire: the 2-D Jacobi halo
// exchange with notified puts and write-back, the workloads where
// writes run beside reads through the same cache. stencil.RunRank
// builds its own core.Cache, so only the rma boundary is visible from
// here: app and core are reported as one combined self time.
type stencilBench struct {
	wireBase
	overWire bool
	cfg      stencil.Config
	passes   int
	want     uint64 // grid checksum of the reference run
}

const stencilWindows = 512 // fresh named windows the wire server hosts, one per pass

func stencilConfig(e *env) stencil.Config {
	// 1000 iterations stop long before the grid reaches its floating-point
	// fixed point, so nearly every iteration still publishes both edge
	// rows; the tiny grid keeps relax from being the bulk, and the small
	// cache (two entries per rank are all it ever holds) keeps allocating
	// it from being the bulk of a pass.
	cfg := stencil.Config{Ranks: 2, Rows: 8, Cols: 64, Iters: 1000, Notify: true, WriteBack: true,
		CacheBytes: 64 << 10, Resilience: &core.Params{Seed: e.seed}}
	if e.toy {
		cfg.Iters = 50
	}
	return cfg
}

// baseline is the same kernel under blanket epoch invalidation and
// write-through: every halo is fetched again every iteration, which is
// what "uncached" means for this workload. Both modes compute
// bit-identical grids.
func baseline(cfg stencil.Config) stencil.Config {
	cfg.Notify, cfg.WriteBack = false, false
	return cfg
}

func setupStencilSim(e *env) (instance, error) {
	s := &stencilBench{cfg: stencilConfig(e), passes: 3}
	if e.toy {
		s.passes = 2
	}
	ref, err := stencil.Run(baseline(s.cfg), mpi.FidelityMeasured)
	s.want = ref.Checksum
	return s, err
}

func setupStencilWire(e *env) (instance, error) {
	s := &stencilBench{cfg: stencilConfig(e), passes: 1, overWire: true}
	// The reference is the simulated backend running the same
	// configuration: the two window hosts must agree bit for bit.
	ref, err := stencil.Run(s.cfg, mpi.Throughput)
	if err != nil {
		return s, err
	}
	s.want = ref.Checksum
	err = s.start(e, serveSpec{Kind: "grid", P: s.cfg.Ranks, Windows: stencilWindows,
		RegionBytes: s.cfg.RegionBytes(), World: s.cfg.Ranks})
	return s, err
}

func (s *stencilBench) rep(tr *tracer, verify bool) (repResult, error) {
	if !s.overWire {
		return s.run(nil, tr, verify)
	}
	return s.onServer(tr, func(srv *server) (repResult, error) { return s.run(srv, tr, verify) })
}

func (s *stencilBench) run(srv *server, tr *tracer, verify bool) (res repResult, err error) {
	t0 := time.Now()
	for i := 0; i < s.passes; i++ {
		var out stencil.Result
		if s.overWire {
			out, err = s.passWire(srv, s.cfg, tr)
		} else {
			out, err = s.passSim(s.cfg, tr)
		}
		if err != nil {
			return res, err
		}
		res.virtual += out.Virtual
		res.stats = res.stats.Add(out.Stats)
		if out.Checksum != s.want {
			res.failed++
		}
	}
	res.wall = time.Since(t0)
	res.ops = int64(s.passes * s.cfg.Iters * s.cfg.Ranks)
	res.lanes = s.cfg.Ranks
	// Every pass is verified by its checksum; the result check of the
	// last rep is what the verified pass is for this workload.
	if verify {
		res.checked = int64(s.passes)
	}
	return res, nil
}

// passSim runs one pass over the simulated window host, both ranks
// concurrently runnable.
func (s *stencilBench) passSim(cfg stencil.Config, tr *tracer) (stencil.Result, error) {
	if tr == nil {
		return stencil.Run(cfg, mpi.Throughput)
	}
	var mu sync.Mutex
	var logs []*spanLog
	cfg.Wrap = func(win rma.Window) rma.Window {
		rw, log, err := tr.wrap(win)
		if err != nil {
			return win // tr.err reports it after the run
		}
		log.begin(spPass)
		mu.Lock()
		logs = append(logs, log)
		mu.Unlock()
		return rw
	}
	out, err := stencil.Run(cfg, mpi.Throughput)
	// stencil.Run offers no hook at a rank's end: its pass span closes
	// with the rank's last backend call.
	for _, l := range logs {
		l.spans[0].end = l.spans[len(l.spans)-1].end
	}
	return out, errors.Join(err, tr.err)
}

// passWire runs one pass over the next fresh named window of the server,
// one connection per rank.
func (s *stencilBench) passWire(srv *server, cfg stencil.Config, tr *tracer) (stencil.Result, error) {
	if srv.gridsUsed >= stencilWindows {
		return stencil.Result{}, fmt.Errorf("bench: all %d stencil windows of the server are used", stencilWindows)
	}
	name := fmt.Sprintf("grid%d", srv.gridsUsed)
	srv.gridsUsed++
	results := make([]stencil.RankResult, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	rws := make([]rma.Window, cfg.Ranks)
	logs := make([]*spanLog, cfg.Ranks)
	for r := range rws {
		win, err := dial(srv.sock, name, r, cfg.Ranks)
		if err != nil {
			return stencil.Result{}, err
		}
		defer win.Free()
		if rws[r], logs[r], err = tr.wrap(win); err != nil {
			return stencil.Result{}, err
		}
	}
	var wg sync.WaitGroup
	for r := range rws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := logs[r].begin(spPass)
			results[r], errs[r] = stencil.RunRank(rws[r], r, cfg)
			logs[r].end(sp)
		}()
	}
	wg.Wait()
	return stencil.Combine(results), errors.Join(errs...)
}

func (s *stencilBench) uncached() (time.Duration, error) {
	cfg := baseline(s.cfg)
	t0 := time.Now()
	for i := 0; i < s.passes; i++ {
		var out stencil.Result
		var err error
		if s.overWire {
			out, err = s.passWire(s.srv, cfg, nil)
		} else {
			out, err = s.passSim(cfg, nil)
		}
		if err != nil {
			return 0, err
		}
		if out.Checksum != s.want {
			return 0, fmt.Errorf("bench: baseline stencil checksum %016x, want %016x", out.Checksum, s.want)
		}
	}
	return time.Since(t0), nil
}
