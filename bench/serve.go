package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"clampi"
)

// The _wire workloads talk to a server in a separate OS process over a
// Unix socket — loopback, no real link. The benchmark binary re-executes
// itself with serveEnv set; the child calls clampi.Serve, the code
// cmd/clampi-serve is a flag-parsing shell around, with regions
// generated from the seed.

const serveEnv = "CLAMPI_BENCH_SERVE"

// serveSpec tells the child what to host.
type serveSpec struct {
	Sock string
	Kind string // "lcc": the graph's adjacency regions; "grid": zeroed stencil windows; "blob": seeded random bytes
	Seed int64

	Scale, EF   int // lcc
	P           int // regions per window
	Windows     int // grid: windows named grid0, grid1, ...
	RegionBytes int // grid, blob
	World       int // barrier population
	Metrics     bool
}

// serverDump is what a child with Metrics set reports at shutdown, from
// the server's own obsv.Registry.
type serverDump struct {
	OpNs      map[string]float64 // mean wall ns the server spent handling one request, by op
	OpCount   map[string]int64
	FramesIn  int64
	FramesOut int64
	BytesOut  int64
	CPUs      float64 // user+system seconds of the child, filled in by the parent
}

func (d *serverDump) handleNs() float64 {
	var ns float64
	for op, n := range d.OpCount {
		ns += d.OpNs[op] * float64(n)
	}
	return ns
}

func (d *serverDump) requests() int64 {
	var n int64
	for _, c := range d.OpCount {
		n += c
	}
	return n
}

// blobRegions are the seeded regions of the serve_* workloads; parent
// and child generate the same bytes.
func blobRegions(p, size int, seed int64) [][]byte {
	regions := clampi.MakeRegions(p, size)
	rng := rand.New(rand.NewSource(seed))
	for _, r := range regions {
		rng.Read(r)
	}
	return regions
}

func (s serveSpec) windows() []clampi.WindowSpec {
	switch s.Kind {
	case "lcc":
		_, dists := lccGraph(s.Scale, s.EF, s.P, s.Seed)
		return []clampi.WindowSpec{{Name: "lcc", Regions: lccRegions(dists)}}
	case "grid":
		ws := make([]clampi.WindowSpec, s.Windows)
		for i := range ws {
			ws[i] = clampi.WindowSpec{Name: fmt.Sprintf("grid%d", i), Regions: clampi.MakeRegions(s.P, s.RegionBytes)}
		}
		return ws
	default:
		return []clampi.WindowSpec{{Name: "blob", Regions: blobRegions(s.P, s.RegionBytes, s.Seed)}}
	}
}

// serveMain is the child: serve until standard input closes, so a child
// never outlives its parent.
func serveMain(specJSON string) int {
	runtime.GOMAXPROCS(1) // on the parent's CPU: the binding is inherited
	var spec serveSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench serve:", err)
		return 2
	}
	cfg := clampi.ServeConfig{Network: "unix", Addr: spec.Sock, Windows: spec.windows(), World: spec.World}
	var reg *clampi.Registry
	if spec.Metrics {
		reg = clampi.NewRegistry()
		cfg.Registry = reg
	}
	srv, err := clampi.Serve(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench serve:", err)
		return 1
	}
	fmt.Println("ready")
	_, _ = io.Copy(io.Discard, os.Stdin) // returns at EOF: the parent is done or gone
	_ = srv.Shutdown(2 * time.Second)    // the listener is closed either way
	if reg != nil {
		d := serverDump{OpNs: map[string]float64{}, OpCount: map[string]int64{}}
		for _, op := range []string{"get", "get_batch", "put", "put_notify", "flush", "barrier", "subscribe", "hello", "lock", "unlock", "detach"} {
			h := reg.Histogram("wire_server_op_wall_ns", clampi.L("op", op))
			if n := h.Count(); n > 0 {
				d.OpCount[op] = n
				d.OpNs[op] = float64(h.Sum()) / float64(n)
			}
		}
		d.FramesIn = reg.Counter("wire_server_frames_total", clampi.L("dir", "in")).Value()
		d.FramesOut = reg.Counter("wire_server_frames_total", clampi.L("dir", "out")).Value()
		d.BytesOut = reg.Counter("wire_server_bytes_total", clampi.L("dir", "out")).Value()
		if err := json.NewEncoder(os.Stdout).Encode(d); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			return 1
		}
	}
	return 0
}

// server is a running child.
type server struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	sock  string

	gridsUsed int // "grid" servers: named windows already written to, each good for one stencil pass
}

var sockSeq atomic.Int64

// startServer launches the child and returns once it listens.
func startServer(e *env, spec serveSpec) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec.Sock = filepath.Join(e.dir, fmt.Sprintf("%d.sock", sockSeq.Add(1)))
	spec.Seed = e.seed
	js, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), serveEnv+"="+string(js))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), sock: spec.Sock}
	if line, err := s.out.ReadString('\n'); err != nil || line != "ready\n" {
		s.stop()
		return nil, fmt.Errorf("bench: server child did not come up (%q, %v)", line, err)
	}
	return s, nil
}

// stop shuts the child down, waits for it, and returns its metrics dump
// (nil unless it ran with Metrics).
func (s *server) stop() (*serverDump, error) {
	s.stdin.Close()
	kill := time.AfterFunc(10*time.Second, func() { _ = s.cmd.Process.Kill() })
	defer kill.Stop()
	var dump *serverDump
	if line, err := s.out.ReadBytes('\n'); err == nil {
		dump = &serverDump{}
		if err := json.Unmarshal(line, dump); err != nil {
			dump = nil
		}
	}
	err := s.cmd.Wait()
	if dump != nil && s.cmd.ProcessState != nil {
		dump.CPUs = (s.cmd.ProcessState.UserTime() + s.cmd.ProcessState.SystemTime()).Seconds()
	}
	return dump, err
}
