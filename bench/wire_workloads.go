package main

import (
	"bytes"
	"errors"
	"math/rand"
	"time"

	"clampi"
	"clampi/internal/datatype"
	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/lcc"
	"clampi/internal/simtime"
	"clampi/internal/wire"
)

// wireBase owns the server child of a _wire workload. Untraced reps
// share one child; the traced rep gets its own, started with the
// server's metrics registry on, and reads its dump at shutdown.
type wireBase struct {
	e    *env
	spec serveSpec
	srv  *server
}

func (b *wireBase) start(e *env, spec serveSpec) error {
	b.e, b.spec = e, spec
	var err error
	b.srv, err = startServer(e, spec)
	return err
}

func (b *wireBase) close() {
	if b.srv != nil {
		_, _ = b.srv.stop()
		b.srv = nil
	}
}

// onServer runs a rep's body against the server it should use: the
// shared child, or for a traced rep a child of its own whose metrics
// dump ends up in the result.
func (b *wireBase) onServer(tr *tracer, body func(srv *server) (repResult, error)) (repResult, error) {
	if tr == nil {
		return body(b.srv)
	}
	spec := b.spec
	spec.Metrics = true
	srv, err := startServer(b.e, spec)
	if err != nil {
		return repResult{}, err
	}
	res, err := body(srv) // has closed its connections when it returns
	dump, stopErr := srv.stop()
	res.server = dump
	return res, errors.Join(err, stopErr)
}

func dial(sock, window string, rank, world int) (*wire.Window, error) {
	return wire.Open(wire.DialConfig{Network: "unix", Addr: sock, Window: window, Rank: rank, World: world}, nil)
}

// winGetter adapts the public clampi.Window to the applications' getter
// interface, with a span around each call into it when traced.
type winGetter struct {
	w   *clampi.Window
	log *spanLog // nil when untraced
	ops []clampi.GetOp
}

func (g *winGetter) Name() string { return "clampi.Window" }
func (g *winGetter) Invalidate()  { g.w.Invalidate() }

func (g *winGetter) Get(dst []byte, target, disp int) error {
	sp := g.log.begin(spClampiGet)
	err := g.w.GetBytes(dst, target, disp)
	g.log.end(sp)
	return err
}

func (g *winGetter) Flush() error {
	sp := g.log.begin(spClampiFlush)
	err := g.w.FlushAll()
	g.log.end(sp)
	return err
}

func (g *winGetter) GetBatch(ops []getter.BatchOp) error {
	g.ops = g.ops[:0]
	for i := range ops {
		g.ops = append(g.ops, clampi.GetOp{Dst: ops[i].Dst, Target: ops[i].Target, Disp: ops[i].Disp})
	}
	sp := g.log.begin(spClampiGetBatch)
	err := g.w.GetBatch(g.ops)
	g.log.end(sp)
	clear(g.ops)
	return err
}

// lccApp is lcc_app_wire: the full LCC kernel, compute included, for all
// rank ranges one after another over one connection. LCC is read-only
// and its ranks do not interact, so one cache serves them in turn.
type lccApp struct {
	wireBase
	dists []*graph.Dist
	want  []float64 // reference SumLCC per rank range
	opts  []clampi.Option
}

func setupLCCApp(e *env) (instance, error) {
	scale, storage := 13, 512<<10
	if e.toy {
		scale, storage = 8, 16<<10
	}
	g, dists := lccGraph(scale, 16, 4, e.seed)
	a := &lccApp{
		dists: dists,
		want:  make([]float64, len(dists)),
		// The cache holds a fraction of the remote adjacency bytes, so the
		// hit rate lands in 0.6-0.8 and misses keep crossing the socket.
		opts: []clampi.Option{clampi.WithMode(clampi.AlwaysCache), clampi.WithIndexSlots(4096),
			clampi.WithStorageBytes(storage), clampi.WithSeed(e.seed)},
	}
	ref := lcc.Reference(g)
	for r, d := range dists {
		for v := d.Lo; v < d.Hi; v++ {
			a.want[r] += ref[v]
		}
	}
	err := a.start(e, serveSpec{Kind: "lcc", Scale: scale, EF: 16, P: len(dists), World: 1})
	return a, err
}

// kernel runs lcc.Run for every rank range through gt and checks each
// range's SumLCC against the serial reference.
func (a *lccApp) kernel(gt getter.Getter, clock *simtime.Clock, log *spanLog) (res repResult, sums []float64, err error) {
	v0, t0 := clock.Now(), time.Now()
	for r, d := range a.dists {
		sp := log.begin(spPass)
		out, err := lcc.Run(clock, d, gt, lcc.Config{})
		log.end(sp)
		if err != nil {
			return res, nil, err
		}
		res.ops += out.RemoteGets
		sums = append(sums, out.SumLCC)
		if out.SumLCC != a.want[r] {
			res.failed++
		}
	}
	res.wall = time.Since(t0)
	res.virtual = clock.Now() - v0
	return res, sums, nil
}

func (a *lccApp) rep(tr *tracer, verify bool) (repResult, error) {
	return a.onServer(tr, func(srv *server) (repResult, error) { return a.run(srv.sock, tr, verify) })
}

func (a *lccApp) run(sock string, tr *tracer, verify bool) (res repResult, err error) {
	win, err := dial(sock, "lcc", 0, 1)
	if err != nil {
		return res, err
	}
	defer win.Free()
	rw, log, err := tr.wrap(win)
	if err != nil {
		return res, err
	}
	w, err := clampi.Wrap(rw, a.opts...)
	if err != nil {
		return res, err
	}
	if err := w.LockAll(); err != nil {
		return res, err
	}
	clock := win.Endpoint().Clock()
	res, sums, err := a.kernel(&winGetter{w: w, log: log}, clock, log)
	if err != nil {
		return res, err
	}
	res.stats = w.Stats()
	if verify {
		// The same kernel without the cache, on the same window, must
		// produce bit-identical sums.
		raw, rawSums, err := a.kernel(getter.NewRaw(win), clock, nil)
		if err != nil {
			return res, err
		}
		res.checked = raw.ops
		res.failed += raw.failed
		for r := range sums {
			if sums[r] != rawSums[r] {
				res.failed++
			}
		}
	}
	return res, w.UnlockAll()
}

func (a *lccApp) uncached() (time.Duration, error) {
	win, err := dial(a.srv.sock, "lcc", 0, 1)
	if err != nil {
		return 0, err
	}
	defer win.Free()
	if err := win.LockAll(); err != nil {
		return 0, err
	}
	res, _, err := a.kernel(getter.NewRaw(win), win.Endpoint().Clock(), nil)
	return res.wall, err
}

// serveBench is serve_small_wire and serve_large_wire: raw
// wire.Window.Get calls, no cache, over one connection, so caller and
// server take turns. With two connections four threads share the CPU in
// an order that differs from rep to rep, and a rep's time falls into one
// of several modes 40% apart.
type serveBench struct {
	wireBase
	region []byte
	size   int   // payload bytes
	disps  []int // one get each per rep
}

func setupServeSmall(e *env) (instance, error) { return setupServe(e, 64, 2000) }
func setupServeLarge(e *env) (instance, error) { return setupServe(e, 64<<10, 200) }

func setupServe(e *env, size, n int) (instance, error) {
	regionBytes := 4 << 20
	if e.toy {
		n, regionBytes = 200, 256<<10
	}
	s := &serveBench{region: blobRegions(1, regionBytes, e.seed)[0], size: size, disps: make([]int, n)}
	rng := rand.New(rand.NewSource(e.seed + 1))
	for i := range s.disps {
		s.disps[i] = rng.Intn(regionBytes - size + 1)
	}
	err := s.start(e, serveSpec{Kind: "blob", P: 1, RegionBytes: regionBytes})
	return s, err
}

func (s *serveBench) rep(tr *tracer, verify bool) (repResult, error) {
	return s.onServer(tr, func(srv *server) (repResult, error) { return s.run(srv.sock, tr, verify) })
}

func (s *serveBench) run(sock string, tr *tracer, verify bool) (res repResult, err error) {
	win, err := dial(sock, "blob", 0, 0)
	if err != nil {
		return res, err
	}
	defer win.Free()
	rw, log, err := tr.wrap(win)
	if err != nil {
		return res, err
	}
	if err := rw.LockAll(); err != nil {
		return res, err
	}
	buf := make([]byte, s.size)
	t0 := time.Now()
	sp := log.begin(spPass)
	for _, disp := range s.disps {
		if err := rw.Get(buf, datatype.Byte, s.size, 0, disp); err != nil {
			return res, err
		}
	}
	log.end(sp)
	res.wall = time.Since(t0)
	res.ops = int64(len(s.disps))
	res.virtual = win.Endpoint().Clock().Now()
	if !verify {
		return res, nil
	}
	res.checked = int64(s.verified())
	for _, disp := range s.disps[:res.checked] {
		if err := win.Get(buf, datatype.Byte, s.size, 0, disp); err != nil {
			return res, err
		}
		if !bytes.Equal(buf, s.region[disp:disp+s.size]) {
			res.failed++
		}
	}
	return res, nil
}

func (s *serveBench) verified() int { return min(len(s.disps), 2000) }

// uncached is the workload itself: there is no cache to bypass.
func (s *serveBench) uncached() (time.Duration, error) {
	r, err := s.rep(nil, false)
	return r.wall, err
}
