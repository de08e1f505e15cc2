// Command clampi-serve is the window daemon of the wire transport: it
// hosts one or more RMA window regions in its memory and exposes them to
// many concurrent client processes over the length-prefixed binary
// protocol of internal/wire (DESIGN.md §13). Clients attach with
// clampi.Dial and run the full caching stack against it — the first
// configuration where CLaMPI's batching coalesces real syscalls and the
// resilience layer faces a genuine network.
//
// The daemon is intentionally thin: flag parsing, region prefill, a
// Prometheus metrics endpoint, and SIGTERM-triggered graceful drain
// around clampi.Serve (internal/wire.Server does the actual work).
//
// Usage:
//
//	clampi-serve [-listen 127.0.0.1:9021] [-network tcp|unix]
//	             [-ranks 4] [-size 1048576] [-window default]
//	             [-world 0] [-fill zero|pattern] [-seed 42]
//	             [-metrics addr] [-drain 5s] [-v]
//
// Quickstart (two terminals):
//
//	$ clampi-serve -listen 127.0.0.1:9021 -ranks 4 -fill pattern
//	$ # in another terminal / process:
//	$ # w, _ := clampi.Dial("127.0.0.1:9021"); w.LockAll(); w.GetBytes(...)
//
// A daemon run is wall-clock by nature (it serves real sockets), so its
// latency metrics are wall-clock too — unlike the simulated drivers,
// whose timings are virtual. The //clampi:walltime annotations below
// mark exactly the lines that sample the real clock.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clampi/internal/obsv"
	"clampi/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9021", "listen address (host:port, or socket path with -network unix)")
	network := flag.String("network", "tcp", "socket family: tcp or unix")
	ranks := flag.Int("ranks", 4, "number of window regions (one per target rank)")
	size := flag.Int("size", 1<<20, "bytes per region")
	window := flag.String("window", "default", "window name clients select in their handshake")
	world := flag.Int("world", 0, "pin the barrier population (0: first client's declaration wins)")
	fill := flag.String("fill", "zero", "region prefill: zero, or pattern (deterministic byte pattern keyed by -seed)")
	seed := flag.Int64("seed", 42, "pattern prefill seed")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this address at /metrics (empty: disabled)")
	drain := flag.Duration("drain", 5*time.Second, "graceful drain window on SIGTERM/SIGINT")
	verbose := flag.Bool("v", false, "log per-connection diagnostics")
	flag.Parse()

	regions := wire.MakeRegions(*ranks, *size)
	switch *fill {
	case "zero":
	case "pattern":
		for t, reg := range regions {
			fillPattern(reg, t, *seed)
		}
	default:
		log.Fatalf("clampi-serve: unknown -fill %q (want zero or pattern)", *fill)
	}

	reg := obsv.NewRegistry()
	cfg := wire.ServeConfig{
		Network:  *network,
		Addr:     *listen,
		Windows:  []wire.WindowSpec{{Name: *window, Regions: regions}},
		World:    *world,
		Registry: reg,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	srv, err := wire.Serve(cfg)
	if err != nil {
		log.Fatalf("clampi-serve: %v", err)
	}
	fmt.Printf("clampi-serve: window %q, %d regions x %dB, listening on %s %s\n",
		*window, *ranks, *size, *network, srv.Addr())

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := obsv.WritePrometheus(w, reg); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("clampi-serve: metrics endpoint: %v", err)
			}
		}()
		fmt.Printf("clampi-serve: metrics on http://%s/metrics\n", *metricsAddr)
	}

	// Graceful drain: stop accepting, release blocked barriers, let
	// in-flight requests finish, then force-close stragglers.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	s := <-sig
	fmt.Printf("clampi-serve: %v: draining (up to %v)\n", s, *drain)
	if err := srv.Shutdown(*drain); err != nil {
		log.Printf("clampi-serve: shutdown: %v", err)
	}
	if *network == "unix" {
		os.Remove(*listen)
	}
	fmt.Println("clampi-serve: bye")
}

// fillPattern writes the deterministic byte pattern clients can verify
// against: byte k of target t's region is a fixed function of (t, k,
// seed).
func fillPattern(reg []byte, target int, seed int64) {
	s := int(seed)
	for i := range reg {
		reg[i] = byte(target*131 + i*31 + (i >> 8) + s)
	}
}
