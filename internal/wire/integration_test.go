// Multi-process loopback integration test: an in-process server (the
// same wire.Server cmd/clampi-serve shells around) hosts the adjacency
// regions of a distributed LCC instance, and itWorld separate client
// processes — re-executions of this test binary — each run the full
// caching stack over TCP against it. The per-rank results must be
// bit-identical to the same computation on the simulated backend: the
// cache's decisions depend on the key sequence, not on the transport.
//
// The chaos variant injects frame corruption into every client's inbound
// stream and proves the acceptance property end to end: the retry layer
// is exercised (Retries > 0) and zero incorrect bytes are delivered
// (results still bit-identical).
package wire_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"clampi"
	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/lcc"
	"clampi/internal/rmat"
	"clampi/internal/wire"
)

// Fixed experiment shape shared by parent, children and the simulated
// reference. Everything is derived deterministically from these.
const (
	itScale = 8 // 256 vertices
	itEF    = 8
	itSeed  = 4242
	itWorld = 4
)

func itGraph() *graph.CSR {
	return graph.Build(1<<itScale, rmat.Generate(itScale, itEF, rmat.Graph500, itSeed))
}

// cacheOptions is the caching configuration under test. Sized so the
// working set fits without evictions: cache decisions then depend only
// on the deterministic key sequence, never on clock values — which is
// what makes wire (wall-charged clock) and simulated (modelled clock)
// runs comparable bit for bit.
func cacheOptions() []clampi.Option {
	return []clampi.Option{
		clampi.WithMode(clampi.AlwaysCache),
		clampi.WithIndexSlots(1 << 12),
		clampi.WithStorageBytes(1 << 20),
		clampi.WithSeed(3),
	}
}

// windowGetter adapts the public clampi.Window to the getter interface
// the LCC kernel consumes — one adapter used verbatim on both backends,
// so the cache sees the identical call sequence.
type windowGetter struct {
	w *clampi.Window
}

func (g *windowGetter) Get(dst []byte, target, disp int) error {
	return g.w.GetBytes(dst, target, disp)
}
func (g *windowGetter) Flush() error { return g.w.FlushAll() }
func (g *windowGetter) Invalidate()  { g.w.Invalidate() }
func (g *windowGetter) Name() string { return "clampi" }

func (g *windowGetter) GetBatch(ops []getter.BatchOp) error { return g.w.GetBatch(ops) }

// rankReport is one rank's outcome, JSON-printed by child processes and
// compared field by field against the simulated reference.
type rankReport struct {
	Rank        int
	Vertices    int
	SumLCCBits  uint64 // math.Float64bits(SumLCC): exact, not approximate
	Wedges      int64
	Gets        int64
	RemoteGets  int64
	RemoteBytes int64
	CacheGets   int64
	CacheHits   int64
	Retries     int64
	Timeouts    int64
}

func makeReport(rank int, res lcc.Result, st clampi.Stats) rankReport {
	return rankReport{
		Rank:        rank,
		Vertices:    res.Vertices,
		SumLCCBits:  math.Float64bits(res.SumLCC),
		Wedges:      res.Wedges,
		Gets:        res.Gets,
		RemoteGets:  res.RemoteGets,
		RemoteBytes: res.RemoteBytes,
		CacheGets:   st.Gets,
		CacheHits:   st.Hits,
		Retries:     st.Retries,
		Timeouts:    st.Timeouts,
	}
}

// TestMain dispatches child-process invocations (the wire clients of the
// multi-process tests) before the normal test runner takes over.
func TestMain(m *testing.M) {
	if os.Getenv("CLAMPI_WIRE_CHILD") == "1" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

// childMain is one wire client process: dial the parent's server with
// the public clampi.Dial API (the chaos child opens the wire window
// itself, to install its frame tap, and wraps it), run this rank's share
// of the LCC kernel through the caching layer, and print the rankReport
// as JSON.
func childMain() int {
	addr := os.Getenv("CLAMPI_WIRE_ADDR")
	rank, err := strconv.Atoi(os.Getenv("CLAMPI_WIRE_RANK"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: bad rank: %v\n", err)
		return 1
	}
	chaos := os.Getenv("CLAMPI_WIRE_CHAOS") == "1"

	var w *clampi.Window
	if chaos {
		w, err = chaosDial(addr, rank)
	} else {
		w, err = clampi.Dial(addr, append(cacheOptions(),
			clampi.WithRank(rank),
			clampi.WithWorld(itWorld),
			clampi.WithDialTimeout(10*time.Second),
		)...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "child %d: dial %s: %v\n", rank, addr, err)
		return 1
	}
	defer w.Free()
	if err := w.LockAll(); err != nil {
		fmt.Fprintf(os.Stderr, "child %d: lock all: %v\n", rank, err)
		return 1
	}
	d := graph.Distribute(itGraph(), itWorld, rank)
	clock := w.Raw().Endpoint().Clock()
	res, err := lcc.Run(clock, d, &windowGetter{w: w}, lcc.Config{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child %d: lcc: %v\n", rank, err)
		return 1
	}
	if err := w.UnlockAll(); err != nil {
		fmt.Fprintf(os.Stderr, "child %d: unlock all: %v\n", rank, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(makeReport(rank, res, w.Stats())); err != nil {
		fmt.Fprintf(os.Stderr, "child %d: encode: %v\n", rank, err)
		return 1
	}
	return 0
}

// chaosDial opens rank's wire window with a frame tap that flips one
// payload bit in bursts of two consecutive inbound data frames, and wraps
// it with retrying on. The frame checksum rejects each as rma.ErrCorrupt;
// the first corruption fails the batched fetch, the second fails the
// per-range refetch's first attempt too — forcing a genuine retry
// (Retries > 0) before the burst ends, well inside the policy's
// MaxAttempts. The handshake (OpWelcome) and acks pass untouched.
func chaosDial(addr string, rank int) (*clampi.Window, error) {
	var n atomic.Int64
	win, err := wire.Open(wire.DialConfig{
		Addr:        addr,
		Rank:        rank,
		World:       itWorld,
		DialTimeout: 10 * time.Second,
		FrameTap: func(frame []byte) {
			if frame[3] == wire.OpData && len(frame) > 24 {
				if k := n.Add(1) % 7; k == 2 || k == 3 {
					frame[16] ^= 0x40
				}
			}
		},
	}, nil)
	if err != nil {
		return nil, err
	}
	w, err := clampi.Wrap(win, append(cacheOptions(), clampi.WithRetry(clampi.DefaultRetryPolicy()))...)
	if err != nil {
		win.Free()
		return nil, err
	}
	return w, nil
}

// simulatedReports runs the identical LCC configuration on the simulated
// MPI backend and returns the per-rank reference reports.
func simulatedReports(t *testing.T) []rankReport {
	t.Helper()
	g := itGraph()
	reports := make([]rankReport, itWorld)
	err := clampi.Run(itWorld, clampi.RunConfig{}, func(r *clampi.Rank) error {
		d := graph.Distribute(g, itWorld, r.ID())
		w, err := clampi.Create(r, d.LocalAdjBytes(), nil, cacheOptions()...)
		if err != nil {
			return err
		}
		defer w.Free()
		if err := w.LockAll(); err != nil {
			return err
		}
		res, err := lcc.Run(r.Clock(), d, &windowGetter{w: w}, lcc.Config{})
		if err != nil {
			return err
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		reports[r.ID()] = makeReport(r.ID(), res, w.Stats())
		return nil
	})
	if err != nil {
		t.Fatalf("simulated reference run: %v", err)
	}
	return reports
}

// serveGraphWindow starts the in-process daemon hosting each rank's
// adjacency region — the same bytes WinCreate would expose.
func serveGraphWindow(t *testing.T) *clampi.Server {
	t.Helper()
	g := itGraph()
	regions := make([][]byte, itWorld)
	for r := 0; r < itWorld; r++ {
		regions[r] = graph.Distribute(g, itWorld, r).LocalAdjBytes()
	}
	srv, err := clampi.Serve(clampi.ServeConfig{
		Network: "tcp",
		Addr:    "127.0.0.1:0",
		Windows: []clampi.WindowSpec{{Name: "lcc", Regions: regions}},
		World:   itWorld,
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { srv.Shutdown(2 * time.Second) }) //clampi:walltime test teardown drain window
	return srv
}

// runChildren re-executes this test binary as itWorld concurrent client
// processes and decodes their reports.
func runChildren(t *testing.T, addr string, chaos bool) []rankReport {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	type childOut struct {
		out, errb bytes.Buffer
		err       error
	}
	outs := make([]childOut, itWorld)
	done := make(chan int, itWorld)
	for r := 0; r < itWorld; r++ {
		r := r
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"CLAMPI_WIRE_CHILD=1",
			"CLAMPI_WIRE_ADDR="+addr,
			"CLAMPI_WIRE_RANK="+strconv.Itoa(r),
		)
		if chaos {
			cmd.Env = append(cmd.Env, "CLAMPI_WIRE_CHAOS=1")
		}
		cmd.Stdout = &outs[r].out
		cmd.Stderr = &outs[r].errb
		go func() {
			outs[r].err = cmd.Run()
			done <- r
		}()
	}
	reports := make([]rankReport, itWorld)
	for i := 0; i < itWorld; i++ {
		select {
		case r := <-done:
			if outs[r].err != nil {
				t.Fatalf("child %d: %v\nstderr: %s", r, outs[r].err, outs[r].errb.String())
			}
			var rep rankReport
			if err := json.Unmarshal(outs[r].out.Bytes(), &rep); err != nil {
				t.Fatalf("child %d output %q: %v", r, outs[r].out.String(), err)
			}
			if rep.Rank != r {
				t.Fatalf("child %d reported rank %d", r, rep.Rank)
			}
			reports[r] = rep
		case <-time.After(120 * time.Second): //clampi:walltime watchdog on real child processes
			t.Fatalf("children did not finish")
		}
	}
	return reports
}

// compareReports checks the wire-backend results and cache decisions are
// bit-identical to the simulated reference, rank by rank. Resilience
// counters (Retries, Timeouts) are intentionally excluded: they describe
// the transport weather, not the computation.
func compareReports(t *testing.T, got, want []rankReport) {
	t.Helper()
	for r := range want {
		g, w := got[r], want[r]
		if g.Vertices != w.Vertices || g.SumLCCBits != w.SumLCCBits || g.Wedges != w.Wedges {
			t.Errorf("rank %d result diverges: wire {v=%d lcc=%x wedges=%d} vs simulated {v=%d lcc=%x wedges=%d}",
				r, g.Vertices, g.SumLCCBits, g.Wedges, w.Vertices, w.SumLCCBits, w.Wedges)
		}
		if g.Gets != w.Gets || g.RemoteGets != w.RemoteGets || g.RemoteBytes != w.RemoteBytes {
			t.Errorf("rank %d kernel counts diverge: wire {gets=%d remote=%d bytes=%d} vs simulated {gets=%d remote=%d bytes=%d}",
				r, g.Gets, g.RemoteGets, g.RemoteBytes, w.Gets, w.RemoteGets, w.RemoteBytes)
		}
		if g.CacheGets != w.CacheGets || g.CacheHits != w.CacheHits {
			t.Errorf("rank %d cache decisions diverge: wire {gets=%d hits=%d} vs simulated {gets=%d hits=%d}",
				r, g.CacheGets, g.CacheHits, w.CacheGets, w.CacheHits)
		}
	}
}

// TestMultiProcessLCC is the acceptance test of the wire transport:
// itWorld real client processes against a loopback daemon compute the
// same distributed LCC, bit for bit, as the simulated backend.
func TestMultiProcessLCC(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real client processes")
	}
	want := simulatedReports(t)
	srv := serveGraphWindow(t)
	got := runChildren(t, srv.Addr().String(), false)
	compareReports(t, got, want)
	for r := range got {
		if got[r].Retries != 0 {
			t.Errorf("rank %d retried %d times on a clean loopback", r, got[r].Retries)
		}
	}
}

// TestMultiProcessLCCChaos repeats the run with injected frame
// corruption in every client: the retry/breaker machinery must be
// exercised and must deliver zero incorrect reads — the results stay
// bit-identical to the simulated reference.
func TestMultiProcessLCCChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real client processes")
	}
	want := simulatedReports(t)
	srv := serveGraphWindow(t)
	got := runChildren(t, srv.Addr().String(), true)
	compareReports(t, got, want)
	var retries int64
	for r := range got {
		retries += got[r].Retries
	}
	if retries == 0 {
		t.Fatalf("chaos run exercised zero retries — the frame tap is not biting")
	}
}
