package experiments

import (
	"sync"

	"clampi/internal/core"
	"clampi/internal/obsv"
)

// Observability wiring for the experiment drivers (DESIGN.md §8). When
// enabled, every cache the drivers build — fleet ranks and micro-bench
// environments alike — gets a Collector feeding a per-rank registry and
// one shared trace ring; MetricsSnapshot merges the registries for
// export. Disabled (the default), caches carry a nil observer and the
// drivers behave exactly as before.
var obsState struct {
	mu         sync.Mutex
	enabled    bool
	ring       *obsv.Ring
	registries []*obsv.Registry
}

// EnableObservability switches metrics and trace collection on for
// subsequent experiment runs, discarding anything collected so far.
// ringCap bounds the shared trace ring (≤ 0 selects the default).
func EnableObservability(ringCap int) {
	obsState.mu.Lock()
	defer obsState.mu.Unlock()
	obsState.enabled = true
	obsState.ring = obsv.NewRing(ringCap)
	obsState.registries = nil
}

// ObservabilityEnabled reports whether collection is on.
func ObservabilityEnabled() bool {
	obsState.mu.Lock()
	defer obsState.mu.Unlock()
	return obsState.enabled
}

// newObserver returns the observer for one new cache: nil when collection
// is off, otherwise a Collector with its own registry (recorded for the
// final merge) and the shared ring. Per-cache registries keep the hot
// path contention-free across concurrent ranks in Throughput mode.
func newObserver() core.Observer {
	obsState.mu.Lock()
	defer obsState.mu.Unlock()
	if !obsState.enabled {
		return nil
	}
	reg := obsv.NewRegistry()
	obsState.registries = append(obsState.registries, reg)
	return obsv.NewCollector(reg, obsState.ring)
}

// MetricsSnapshot merges every per-cache registry collected since
// EnableObservability into one registry, ready for export. Returns an
// empty registry when collection is off.
func MetricsSnapshot() *obsv.Registry {
	obsState.mu.Lock()
	regs := make([]*obsv.Registry, len(obsState.registries))
	copy(regs, obsState.registries)
	obsState.mu.Unlock()
	merged := obsv.NewRegistry()
	for _, r := range regs {
		merged.Merge(r)
	}
	return merged
}

// TraceRing returns the shared trace ring (nil when collection is off).
func TraceRing() *obsv.Ring {
	obsState.mu.Lock()
	defer obsState.mu.Unlock()
	return obsState.ring
}

// PublishFleetStats exports a fleet's aggregate Stats into reg as gauges
// labelled with the system name, bridging the per-run totals that the
// figure tables report into the same export files as the live counters.
func PublishFleetStats(reg *obsv.Registry, system string, s core.Stats) {
	obsv.PublishStats(reg, s, obsv.L("system", system))
}

// WriteObservability writes the merged metrics (and, when tracePath is
// non-empty, the trace) to files — the shared tail of every clampi
// subcommand's -metrics/-trace flag handling. Empty paths are skipped.
func WriteObservability(metricsPath, tracePath string) error {
	if metricsPath != "" {
		if err := obsv.WriteMetricsFile(metricsPath, MetricsSnapshot()); err != nil {
			return err
		}
	}
	if tracePath != "" {
		ring := TraceRing()
		if ring == nil {
			ring = obsv.NewRing(1)
		}
		if err := obsv.WriteTraceFile(tracePath, ring); err != nil {
			return err
		}
	}
	return nil
}
